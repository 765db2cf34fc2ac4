package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/fv"
	"repro/internal/program"
)

// Every test of this package runs with the wire path's pools poisoning what
// is released to them: a frame, reply or operand used after its release
// fails a range check or a bit-for-bit comparison instead of passing by luck.
func TestMain(m *testing.M) {
	cloud.PoisonReleased = true
	os.Exit(m.Run())
}

// routedTier is a cluster.Server over tc's backends (plus extras), serving on
// loopback.
func routedTier(t *testing.T, tc *testCluster, mux bool, extra ...Backend) (*Server, string) {
	t.Helper()
	router, err := NewRouter(Config{
		Params:   tc.params,
		Backends: append(tc.backendList(), extra...),
		Replicas: len(tc.backends) + len(extra),
		Mux:      mux,
		// Probes stay out of the way: these tests count what reaches a node.
		Health: HealthConfig{Interval: time.Hour, FailThreshold: 100, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tc.params, router, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("routing tier exited with %v", err)
		}
		router.Close()
	})
	return srv, addr
}

// outOfRange returns a copy of ct with one residue equal to its modulus —
// the encoder writes it as is, so the wire carries a word the three checks
// must refuse.
func outOfRange(ct *fv.Ciphertext) *fv.Ciphertext {
	bad := ct.Clone()
	row := bad.Els[1].Rows[len(bad.Els[1].Rows)-1]
	row.Coeffs[len(row.Coeffs)-1] = row.Mod.Q
	return bad
}

// TestRouterStillRangeChecksRequests: forwarding bytes did not move the
// validation out of the routing tier. A request with one residue >= q_i is
// refused there exactly as when the router decoded it — sequential: the
// connection is dropped; mux: a CodeApp reply and the session stays up — and
// nothing of it reaches a node or its circuit breaker.
func TestRouterStillRangeChecksRequests(t *testing.T) {
	tc := startCluster(t, 2, nil)
	a, b := tc.encrypt(t, 3), tc.encrypt(t, 4)
	var bad, good bytes.Buffer
	if err := cloud.WriteRequest(&bad, tc.params, &cloud.Request{Cmd: cloud.CmdAdd, ID: 1, A: a, B: outOfRange(b)}); err != nil {
		t.Fatal(err)
	}
	if err := cloud.WriteRequest(&good, tc.params, &cloud.Request{Cmd: cloud.CmdAdd, ID: 2, A: a, B: b}); err != nil {
		t.Fatal(err)
	}
	untouched := func(srv *Server, served uint64) {
		t.Helper()
		var got uint64
		for _, be := range tc.backends {
			got += be.srv.Served()
		}
		if got != served {
			t.Errorf("backends served %d operations, want %d", got, served)
		}
		for _, st := range srv.Router.Stats().Backends {
			if st.ConsecFails != 0 || st.Ejections != 0 {
				t.Errorf("backend %s: breaker saw %d failures, %d ejections", st.ID, st.ConsecFails, st.Ejections)
			}
		}
		if n := srv.Router.Stats().Obs.Counters["cluster_requests"]; n != served {
			t.Errorf("router walked the ring for %d requests, want %d", n, served)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		srv, addr := routedTier(t, tc, false)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(bad.Bytes()); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after an out-of-range request = (%d, %v), want the connection dropped", n, err)
		}
		untouched(srv, 0)
	})

	t.Run("mux", func(t *testing.T) {
		srv, addr := routedTier(t, tc, true)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(20 * time.Second))
		if err := cloud.WriteMuxHello(conn, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := cloud.ReadMuxHello(conn); err != nil {
			t.Fatal(err)
		}
		exchange := func(id uint64, payload []byte) *cloud.Response {
			t.Helper()
			if err := cloud.WriteMuxFrame(conn, cloud.MuxFrameRequest, id, payload); err != nil {
				t.Fatal(err)
			}
			f, err := cloud.DecodeMuxFrame(conn, 1<<24)
			if err != nil || f.ID != id {
				t.Fatalf("reply frame: %+v, %v", f, err)
			}
			resp, err := cloud.ReadResponseV(bytes.NewReader(f.Payload), tc.params, cloud.ProtoV2)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		if resp := exchange(1, bad.Bytes()); resp.Err == "" || resp.Code != cloud.CodeApp {
			t.Fatalf("out-of-range request answered %+v, want a CodeApp refusal", resp)
		}
		untouched(srv, 0)
		// The session is still up, and the same buffers serve a valid request.
		resp := exchange(2, good.Bytes())
		if resp.Err != "" || tc.decrypt(resp.Result) != 7 {
			t.Fatalf("valid request after the refusal: %+v", resp)
		}
		untouched(srv, 1)
	})
}

// scriptedNode is a data node whose op replies are scripted — a cloud
// front-end with this handler behind it. Pings succeed, so it stays routable.
type scriptedNode struct {
	params *fv.Params
	reply  func() cloud.Reply
	seen   atomic.Uint64
}

func (n *scriptedNode) Handle(f *cloud.Frame) cloud.Reply {
	if f.Cmd == cloud.CmdPing {
		return &cloud.Response{Result: fv.NewCiphertext(n.params, 2)}
	}
	// It did receive a well-formed request: materializing checks the bytes
	// the router forwarded.
	if _, err := f.Request(); err != nil {
		return &cloud.ServerError{Code: cloud.CodeApp, Msg: err.Error()}
	}
	n.seen.Add(1)
	return n.reply()
}

func startScriptedNode(t *testing.T, params *fv.Params, reply func() cloud.Reply) (*scriptedNode, Backend) {
	t.Helper()
	n := &scriptedNode{params: params, reply: reply}
	fe := cloud.NewFrontend(params, n, nil)
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fe.Serve() }()
	t.Cleanup(func() {
		fe.Close()
		<-done
	})
	// "a-" sorts the scripted node first nowhere in particular: tenants are
	// picked per test so that it is their primary.
	return n, Backend{ID: "scripted", Addr: addr}
}

// tenantWithPrimary finds a tenant whose first candidate is node.
func tenantWithPrimary(t *testing.T, r *Router, node string) string {
	t.Helper()
	for _, tenant := range testTenants(64) {
		if c := r.Candidates(tenant); len(c) > 0 && c[0] == node {
			return tenant
		}
	}
	t.Fatalf("no tenant hashes to %s first", node)
	return ""
}

// TestRouterFailsOverWithTheSameBytes: the frame a failed attempt sent is
// sent again, restamped, to the next replica — after a retryable refusal
// and after a reply the router's own range check rejects, which stays what
// it was when the router decoded replies: a transport failure that feeds the
// breaker and fails over. Both backend transports; the client sees only the
// right answer.
func TestRouterFailsOverWithTheSameBytes(t *testing.T) {
	tc := startCluster(t, 1, nil)
	want := tc.encrypt(t, 0) // shape only; overwritten below
	for _, mux := range []bool{false, true} {
		for name, script := range map[string]func() cloud.Reply{
			"retryable refusal": func() cloud.Reply {
				return &cloud.ServerError{Code: cloud.CodeUnavailable, Msg: "scripted: overloaded"}
			},
			"reply out of range": func() cloud.Reply {
				return &cloud.Response{Result: outOfRange(want), ComputeNanos: 1}
			},
		} {
			t.Run(name+map[bool]string{false: "/pooled", true: "/mux"}[mux], func(t *testing.T) {
				node, backend := startScriptedNode(t, tc.params, script)
				srv, addr := routedTier(t, tc, mux, backend)
				tenant := tenantWithPrimary(t, srv.Router, backend.ID)
				tc.backends[0].eng.SetRelinKey(tenant, tc.rk)
				client, err := cloud.DialTenant(addr, tc.params, tenant)
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				for i := uint64(1); i <= 3; i++ {
					prod, _, err := client.Mul(tc.encrypt(t, i+1), tc.encrypt(t, i+2))
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					if got := tc.decrypt(prod); got != (i+1)*(i+2) {
						t.Fatalf("request %d decrypts to %d, want %d", i, got, (i+1)*(i+2))
					}
				}
				if node.seen.Load() != 3 {
					t.Errorf("scripted primary saw %d well-formed requests, want 3", node.seen.Load())
				}
				stats := srv.Router.Stats()
				if stats.Obs.Counters["cluster_retries"] != 3 {
					t.Errorf("cluster_retries = %d, want 3", stats.Obs.Counters["cluster_retries"])
				}
				for _, st := range stats.Backends {
					if st.ID != backend.ID {
						continue
					}
					// A refusal proves the node alive; a garbled reply is a
					// failure of the hop.
					if garbled := name == "reply out of range"; (st.ConsecFails > 0) != garbled {
						t.Errorf("breaker counts %d consecutive failures (last: %q)", st.ConsecFails, st.LastErr)
					}
				}
			})
		}
	}
}

// TestProgramOutputThatIsAnInput: a program may hand an input straight back
// as an output, so the node's reply references an operand it materialized
// from the request frame — which must therefore outlive the reply's
// encoding. Through the routing tier, both transports, several times over so
// recycled (and, here, poisoned) operands come around again.
func TestProgramOutputThatIsAnInput(t *testing.T) {
	tc := startCluster(t, 2, nil)
	b := program.NewBuilder()
	x, y := b.Input(), b.Input()
	b.Output(y)
	b.Output(b.Add(x, y))
	b.Output(x)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, mux := range []bool{false, true} {
		_, addr := routedTier(t, tc, mux)
		var run func(ctx context.Context, p *program.Program, in []*fv.Ciphertext) (*cloud.ProgramResponse, error)
		if mux {
			mc, err := cloud.DialMux(addr, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			run = mc.RunProgram
		} else {
			c, err := cloud.Dial(addr, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			run = c.RunProgram
		}
		for i := uint64(0); i < 6; i++ {
			in := []*fv.Ciphertext{tc.encrypt(t, i+2), tc.encrypt(t, i+5)}
			resp, err := run(context.Background(), prog, in)
			if err != nil {
				t.Fatalf("mux=%v run %d: %v", mux, i, err)
			}
			if len(resp.Outputs) != 3 || !resp.Outputs[0].Equal(in[1]) || !resp.Outputs[2].Equal(in[0]) {
				t.Fatalf("mux=%v run %d: passed-through outputs are not the inputs, bit for bit", mux, i)
			}
			if got := tc.decrypt(resp.Outputs[1]); got != 2*i+7 {
				t.Fatalf("mux=%v run %d: sum decrypts to %d, want %d", mux, i, got, 2*i+7)
			}
		}
	}
}

// TestForwardReleasesOnEveryPath: Router.Do — encode, Forward, materialize —
// returns values that own their memory: results survive the release of the
// raw reply they were decoded from, and typed errors survive theirs.
func TestForwardReleasesOnEveryPath(t *testing.T) {
	tc := startCluster(t, 2, []string{"alice"})
	client, err := NewClient(Config{Params: tc.params, Backends: tc.backendList(),
		Health: HealthConfig{Interval: time.Hour, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	sum, _, err := client.Add(ctx, "alice", tc.encrypt(t, 20), tc.encrypt(t, 22))
	if err != nil {
		t.Fatal(err)
	}
	// More traffic recycles (and poisons) the buffers that sum was decoded from.
	for i := 0; i < 4; i++ {
		if _, _, err := client.Add(ctx, "alice", tc.encrypt(t, 1), tc.encrypt(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tc.decrypt(sum); got != 42 {
		t.Fatalf("a result changed after its reply was released: decrypts to %d", got)
	}
	_, _, err = client.Mul(ctx, "nobody-registered-this", tc.encrypt(t, 2), tc.encrypt(t, 3))
	var se *cloud.ServerError
	if !errors.As(err, &se) || se.Code != cloud.CodeApp || se.Msg == "" {
		t.Fatalf("missing key through the router: %v", err)
	}
	msg := se.Msg
	if _, _, err := client.Add(ctx, "alice", tc.encrypt(t, 1), tc.encrypt(t, 1)); err != nil {
		t.Fatal(err)
	}
	if se.Msg != msg {
		t.Fatalf("a server error's message changed after its reply was released: %q", se.Msg)
	}
}
