package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/fv"
	"repro/internal/program"
)

// clusterTestProgram compiles (a·b) + a.
func clusterTestProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	b.Output(b.Add(b.Mul(x, y), x))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestClusterProgramRouting: a whole compiled program routes to its tenant's
// ring primary as one admission unit, and fails over to the replica when the
// primary dies — with no silent wrong answers either way.
func TestClusterProgramRouting(t *testing.T) {
	tenants := testTenants(4)
	tc := startCluster(t, 2, tenants)
	client, err := NewClient(Config{
		Params:   tc.params,
		Backends: tc.backendList(),
		Replicas: 2,
		Health:   HealthConfig{Interval: 25 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	p := clusterTestProgram(t)
	inputs := []*fv.Ciphertext{tc.encrypt(t, 3), tc.encrypt(t, 5)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, tenant := range tenants {
		resp, err := client.RunProgram(ctx, tenant, p, inputs)
		if err != nil {
			t.Fatalf("tenant %s: %v", tenant, err)
		}
		// (3·5 + 3) mod 257 = 18.
		if got := tc.decrypt(resp.Outputs[0]); got != 18 {
			t.Fatalf("tenant %s: program decrypts to %d, want 18", tenant, got)
		}
		if resp.Nodes != 2 || resp.KeyLoads != 1 {
			t.Fatalf("tenant %s: nodes %d key loads %d, want 2 and 1", tenant, resp.Nodes, resp.KeyLoads)
		}
	}

	// Stickiness: each tenant's program ran on its ring primary, nowhere else.
	for _, tenant := range tenants {
		primary := client.Router().Candidates(tenant)[0]
		for _, b := range tc.backends {
			ts, ok := b.eng.Stats().PerTenant[tenant]
			if !ok {
				continue
			}
			if b.id != primary {
				t.Fatalf("tenant %s program ran on %s, ring primary is %s", tenant, b.id, primary)
			}
			if ts.Programs != 1 {
				t.Fatalf("tenant %s on %s: programs %d, want 1", tenant, b.id, ts.Programs)
			}
		}
	}

	// Kill one backend; tenants whose primary died must fail over to the
	// surviving replica and still decrypt correctly (a program, like every
	// routed command, is retried).
	victim := tc.backends[0]
	victim.kill()
	deadline := time.Now().Add(10 * time.Second)
	for _, tenant := range tenants {
		for {
			resp, err := client.RunProgram(ctx, tenant, p, inputs)
			if err == nil {
				if got := tc.decrypt(resp.Outputs[0]); got != 18 {
					t.Fatalf("tenant %s after failover: decrypts to %d, want 18", tenant, got)
				}
				break
			}
			// Deterministic app errors would mean the replica is missing keys —
			// full replication makes that a bug, not a transient.
			var se *cloud.ServerError
			if errors.As(err, &se) && !se.Retryable() {
				t.Fatalf("tenant %s after failover: deterministic error %v", tenant, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s: router did not converge after primary death: %v", tenant, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
