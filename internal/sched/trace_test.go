package sched

import (
	"testing"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/sampler"
)

// TestMulCycleAttributionSumsToTotal drives a full scheduled FV.Mult with a
// tracer attached to the co-processor and checks that the per-instruction
// cycle spans account for every cycle the simulator charged — the
// acceptance bar for comparing the simulated profile with the software
// pipeline's wall-clock spans.
func TestMulCycleAttributionSumsToTotal(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(3)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	pt := fv.NewPlaintext(p)
	pt.Coeffs[0] = 5
	ca := enc.Encrypt(pt)
	pt.Coeffs[0] = 11
	cb := enc.Encrypt(pt)

	tr := obs.New("coproc")
	s.C.Trace = tr
	s.C.ResetStats()

	ct, rep, err := s.Mul(ca, cb, rk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputeCycles == 0 {
		t.Fatal("Mul consumed no cycles")
	}

	got := tr.Root().SumCycles()
	total := uint64(s.C.Stats.Total)
	if got != total {
		t.Fatalf("cycle spans sum to %d, Stats.Total is %d", got, total)
	}

	// The trace must cover the full Fig. 2 instruction mix, not just a few
	// opcodes: NTT, inverse NTT, coefficient-wise ops, Lift and Scale.
	seen := map[string]bool{}
	for _, sp := range tr.Root().Children {
		seen[sp.Name] = true
	}
	for _, op := range []hwsim.Op{hwsim.OpNTT, hwsim.OpINTT, hwsim.OpCMul, hwsim.OpLift, hwsim.OpScale} {
		if !seen[op.String()] {
			t.Errorf("trace missing %s spans (saw %v)", op, seen)
		}
	}

	// And the result still decrypts correctly.
	dec := fv.NewDecryptor(p, sk)
	if got := dec.Decrypt(ct).Coeffs[0]; got != 55 {
		t.Fatalf("traced scheduled Mul decrypts to %d, want 55", got)
	}
}
