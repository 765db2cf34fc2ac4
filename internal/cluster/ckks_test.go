package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/sampler"
)

// ckksSet is the CKKS parameter set and key material of the test clusters:
// every routing tier under test frames CKKS under it, and the nodes of
// startCKKSCluster serve it.
type ckksSet struct {
	cp  *ckks.Params
	sk  *ckks.SecretKey
	pk  *ckks.PublicKey
	rk  *ckks.RelinKey
	gk1 *ckks.GaloisKey // rotation by one slot
}

var testCKKS = sync.OnceValue(func() *ckksSet {
	cp, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		panic(err)
	}
	kg := ckks.NewKeyGenerator(cp, sampler.NewPRNG(41))
	sk, pk, rk := kg.GenKeys()
	return &ckksSet{cp: cp, sk: sk, pk: pk, rk: rk, gk1: kg.GenGaloisKey(sk, cp.GaloisElementForRotation(1))}
})

// install registers the CKKS evaluation keys under tenant.
func (cs *ckksSet) install(eng *engine.Engine, tenant string) {
	eng.SetCKKSRelinKey(tenant, cs.rk)
	eng.SetCKKSGaloisKey(tenant, cs.gk1)
}

// encrypt encodes vals at the top of the chain and encrypts them.
func (cs *ckksSet) encrypt(t testing.TB, vals ...float64) *ckks.Ciphertext {
	t.Helper()
	pt, err := ckks.NewEncoder(cs.cp).Encode(vals, cs.cp.MaxLevel(), cs.cp.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return ckks.NewEncryptor(cs.cp, cs.pk, sampler.NewPRNG(uint64(len(vals))*7+1)).Encrypt(pt)
}

// outOfRangeCKKS is outOfRange for a CKKS ciphertext.
func outOfRangeCKKS(ct *ckks.Ciphertext) *ckks.Ciphertext {
	bad := ct.Clone()
	row := bad.Els[1].Rows[len(bad.Els[1].Rows)-1]
	row.Coeffs[len(row.Coeffs)-1] = row.Mod.Q
	return bad
}

// ckksRound runs Add, Mul (with its rescale) and Rotate on c.
func ckksRound(t *testing.T, c *cloud.Client, x, y *ckks.Ciphertext) []*ckks.Ciphertext {
	t.Helper()
	ctx := context.Background()
	sum, _, err := c.CKKSAddCtx(ctx, x, y)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	prod, _, err := c.CKKSMulCtx(ctx, x, y)
	if err != nil {
		t.Fatalf("mul: %v", err)
	}
	rot, _, err := c.CKKSRotateCtx(ctx, prod, 1)
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	return []*ckks.Ciphertext{sum, prod, rot}
}

// dialCKKS is cloud.Dial armed for CKKS.
func dialCKKS(t *testing.T, tc *testCluster, addr string) *cloud.Client {
	t.Helper()
	c, err := cloud.Dial(addr, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableCKKS(testCKKS().cp)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCKKSThroughTheRouter: CKKS crosses the routing tier, and a second
// client straight to a node, each answer bit for bit the one a first client
// gets from the node directly.
func TestCKKSThroughTheRouter(t *testing.T) {
	tc := startCKKSCluster(t, 2, nil)
	cs := testCKKS()
	x, y := cs.encrypt(t, 0.5, -0.25, 0.125), cs.encrypt(t, 0.3, 0.2)
	want := ckksRound(t, dialCKKS(t, tc, tc.backends[0].addr), x, y)

	_, router := routedTier(t, tc)
	for name, c := range map[string]*cloud.Client{
		"client to the router": dialCKKS(t, tc, router),
		"client to the node":   dialCKKS(t, tc, tc.backends[0].addr),
	} {
		for i, got := range ckksRound(t, c, x, y) {
			if !got.Equal(want[i]) {
				t.Errorf("%s: result %d differs from the node's direct answer", name, i)
			}
		}
	}

	// Several first CKKS frames at once through a fresh router's shared
	// backend session: they race to dial it.
	_, fresh := routedTier(t, tc)
	mc := dialCKKS(t, tc, fresh)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, _, err := mc.CKKSMulCtx(context.Background(), x, y); err != nil || !got.Equal(want[1]) {
				t.Errorf("concurrent mul %d: %v, or not the node's answer", i, err)
			}
		}()
	}
	wg.Wait()
}

// countingProxy relays connections to a backend, counting them and the bytes
// sent toward the node (before they go, so a reply never outruns its count).
type countingProxy struct {
	addr      string
	conns, up atomic.Int64
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countingWriter) Write(b []byte) (int, error) {
	cw.n.Add(int64(len(b)))
	return cw.w.Write(b)
}

func startCountingProxy(t *testing.T, target string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &countingProxy{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.conns.Add(1)
			go func() {
				defer c.Close()
				node, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer node.Close()
				go func() {
					io.Copy(c, node)
					c.Close()
				}()
				io.Copy(countingWriter{node, &p.up}, c)
			}()
		}
	}()
	return p
}

// TestCKKSRefusedByNodesWithoutCKKS: a routing tier that frames CKKS in front
// of nodes that do not serve it forwards the command as it forwards any
// other, and the node, which cannot frame it, refuses it with a typed
// CodeApp over the session it keeps. Nothing but the frame itself goes out —
// no info round trip, no new connection — nothing is retried, no breaker
// moves, and a BFV request on the same backend session goes through right
// after.
func TestCKKSRefusedByNodesWithoutCKKS(t *testing.T) {
	tc := startCluster(t, 2, nil)
	cs := testCKKS()
	x := cs.encrypt(t, 0.5)
	var frame bytes.Buffer
	if err := cloud.WriteRequest(&frame, tc.params, &cloud.Request{Cmd: cloud.CmdCKKSAdd, CA: x, CB: x}); err != nil {
		t.Fatal(err)
	}
	const muxHeader = 21 // type, ID, length, two checksums
	t.Run("mux", func(t *testing.T) {
		var proxies []*countingProxy
		var backends []Backend
		for _, b := range tc.backends {
			p := startCountingProxy(t, b.addr)
			proxies = append(proxies, p)
			backends = append(backends, Backend{ID: b.id, Addr: p.addr})
		}
		sent := func() (conns, up int64) {
			for _, p := range proxies {
				conns, up = conns+p.conns.Load(), up+p.up.Load()
			}
			return conns, up
		}
		router, err := NewRouter(Config{
			Params:   tc.params,
			Backends: backends,
			Health:   HealthConfig{Interval: time.Hour, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		srv := NewServer(tc.params, router, nil)
		srv.CKKSParams = cs.cp
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		defer srv.Close()
		client := dialCKKS(t, tc, addr)
		add := func() {
			t.Helper()
			sum, _, err := client.Add(tc.encrypt(t, 20), tc.encrypt(t, 22))
			if err != nil || tc.decrypt(sum) != 42 {
				t.Fatalf("BFV add through the router: %v", err)
			}
		}
		add() // the backend session exists
		conns, up := sent()
		for i := 0; i < 2; i++ {
			_, _, err := client.CKKSAdd(x, x)
			var se *cloud.ServerError
			if !errors.As(err, &se) || se.Code != cloud.CodeApp || !strings.Contains(se.Msg, cloud.ErrMalformedRequest.Error()) {
				t.Fatalf("CKKS request %d to nodes without CKKS: %v, want the node's CodeApp refusal", i, err)
			}
			c, u := sent()
			if want := int64(muxHeader + frame.Len()); c != conns || u-up != want {
				t.Fatalf("CKKS request %d: %d new connections and %d bytes toward the nodes, want none and the %d of its frame", i, c-conns, u-up, want)
			}
			up = u
		}
		st := router.Stats()
		for _, name := range []string{"cluster_retries", "cluster_ejections"} {
			if n := st.Obs.Counters[name]; n != 0 {
				t.Errorf("%s = %d", name, n)
			}
		}
		for _, b := range st.Backends {
			if b.ConsecFails != 0 {
				t.Errorf("backend %s: the breaker saw %d failures (%s)", b.ID, b.ConsecFails, b.LastErr)
			}
		}
		add()
		if c, _ := sent(); c != conns {
			t.Errorf("the BFV add after the refusal opened %d new backend connections", c-conns)
		}
	})
}
