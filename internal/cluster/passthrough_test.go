package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"net"
	"os"
	"strings"
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
// loopback and framing CKKS as herouter does.
func routedTier(t *testing.T, tc *testCluster, extra ...Backend) (*Server, string) {
	t.Helper()
	router, err := NewRouter(Config{
		Params:   tc.params,
		Backends: append(tc.backendList(), extra...),
		Replicas: len(tc.backends) + len(extra),
		// Probes stay out of the way: these tests count what reaches a node.
		Health: HealthConfig{Interval: time.Hour, FailThreshold: 100, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tc.params, router, nil)
	srv.CKKSParams = testCKKS().cp
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
// validation out of the routing tier. A request with one residue >= q_i — a
// BFV operand or a CKKS one — is refused there exactly as when the router
// decoded it: a CodeApp reply naming the malformed request, and the session
// stays up; nothing of it reaches a node or its circuit breaker. Sent bare,
// in the retired sequential framing, the same bytes get the connection
// closed before they reach the router at all.
func TestRouterStillRangeChecksRequests(t *testing.T) {
	tc := startCKKSCluster(t, 2, nil)
	cs := testCKKS()
	a, b := tc.encrypt(t, 3), tc.encrypt(t, 4)
	x := cs.encrypt(t, 0.5, 0.25)
	want, _, err := dialCKKS(t, tc, tc.backends[0].addr).CKKSAdd(x, x)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(req *cloud.Request) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := cloud.WriteRequest(&buf, tc.params, req); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	schemes := []struct {
		name      string
		bad, good []byte
		right     func(payload []byte) error // decodes the good request's reply
	}{
		{"bfv",
			encode(&cloud.Request{Cmd: cloud.CmdAdd, ID: 1, A: a, B: outOfRange(b)}),
			encode(&cloud.Request{Cmd: cloud.CmdAdd, ID: 2, A: a, B: b}),
			func(payload []byte) error {
				resp, err := cloud.ReadResponseV(bytes.NewReader(payload), tc.params, cloud.ProtoV2)
				if err == nil && (resp.Err != "" || tc.decrypt(resp.Result) != 7) {
					err = fmt.Errorf("answered %+v", resp)
				}
				return err
			}},
		{"ckks",
			encode(&cloud.Request{Cmd: cloud.CmdCKKSAdd, ID: 1, CA: x, CB: outOfRangeCKKS(x)}),
			encode(&cloud.Request{Cmd: cloud.CmdCKKSAdd, ID: 2, CA: x, CB: x}),
			func(payload []byte) error {
				resp, err := cloud.ReadCKKSResponseV(bytes.NewReader(payload), cs.cp, cloud.ProtoV2)
				if err == nil && (resp.Err != "" || !resp.CKKSResult.Equal(want)) {
					err = fmt.Errorf("answered %+v", resp)
				}
				return err
			}},
	}
	served := func() (n uint64) {
		for _, be := range tc.backends {
			n += be.srv.Served()
		}
		return n
	}
	// untouched checks what a tier has let through since the node counts
	// were base: ops operations, none of them a failure.
	untouched := func(srv *Server, base, ops uint64) {
		t.Helper()
		if got := served() - base; got != ops {
			t.Errorf("backends served %d operations, want %d", got, ops)
		}
		for _, st := range srv.Router.Stats().Backends {
			if st.ConsecFails != 0 || st.Ejections != 0 {
				t.Errorf("backend %s: breaker saw %d failures, %d ejections", st.ID, st.ConsecFails, st.Ejections)
			}
		}
		if n := srv.Router.Stats().Obs.Counters["cluster_requests"]; n != ops {
			t.Errorf("router walked the ring for %d requests, want %d", n, ops)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		for _, sc := range schemes {
			base := served()
			srv, addr := routedTier(t, tc)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(sc.bad); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := conn.Read(make([]byte, 1))
			if ne, ok := err.(net.Error); n != 0 || err == nil || ok && ne.Timeout() {
				t.Fatalf("%s: read after a bare out-of-range request = (%d, %v), want the connection dropped", sc.name, n, err)
			}
			untouched(srv, base, 0)
		}
	})

	t.Run("mux", func(t *testing.T) {
		for _, sc := range schemes {
			base := served()
			srv, addr := routedTier(t, tc)
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
			exchange := func(id uint64, payload []byte) []byte {
				t.Helper()
				if err := cloud.WriteMuxFrame(conn, cloud.MuxFrameRequest, id, payload); err != nil {
					t.Fatal(err)
				}
				f, err := cloud.DecodeMuxFrame(conn, 1<<24)
				if err != nil || f.ID != id {
					t.Fatalf("reply frame: %+v, %v", f, err)
				}
				return f.Payload
			}
			resp, err := cloud.ReadResponseV(bytes.NewReader(exchange(1, sc.bad)), tc.params, cloud.ProtoV2)
			if err != nil || resp.Code != cloud.CodeApp || !strings.Contains(resp.Err, cloud.ErrMalformedRequest.Error()) {
				t.Fatalf("%s: out-of-range request answered %+v (%v), want a CodeApp refusal of a malformed request", sc.name, resp, err)
			}
			untouched(srv, base, 0)
			// The session is still up, and the same buffers serve a valid request.
			if err := sc.right(exchange(2, sc.good)); err != nil {
				t.Fatalf("%s: valid request after the refusal: %v", sc.name, err)
			}
			untouched(srv, base, 1)
		}
	})
}

// scriptedNode is a data node whose op replies are scripted — a cloud
// front-end with this handler behind it, framing both schemes. Pings succeed,
// so it stays routable, and its info says it serves CKKS.
type scriptedNode struct {
	params *fv.Params
	reply  func(cmd uint8) cloud.Reply
	seen   atomic.Uint64
}

func (n *scriptedNode) Handle(f *cloud.Frame) cloud.Reply {
	switch f.Cmd {
	case cloud.CmdPing:
		return &cloud.Response{Result: fv.NewCiphertext(n.params, 2)}
	case cloud.CmdInfo:
		return &cloud.ServerInfo{Proto: cloud.ProtoV2, CKKS: true}
	}
	// It did receive a well-formed request: materializing checks the bytes
	// the router forwarded.
	if _, err := f.Request(); err != nil {
		return &cloud.ServerError{Code: cloud.CodeApp, Msg: err.Error()}
	}
	n.seen.Add(1)
	return n.reply(f.Cmd)
}

func startScriptedNode(t *testing.T, params *fv.Params, reply func(cmd uint8) cloud.Reply) (*scriptedNode, Backend) {
	t.Helper()
	n := &scriptedNode{params: params, reply: reply}
	fe := cloud.NewFrontend(params, n, nil)
	fe.CKKSParams = testCKKS().cp
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
// sent again, byte for byte, to the next replica — after a retryable refusal
// and after a reply the router's own range check rejects, which stays what
// it was when the router decoded replies: a transport failure that feeds the
// breaker and fails over. Both schemes; the client sees only the right
// answer, a CKKS one bit for bit the healthy node's.
func TestRouterFailsOverWithTheSameBytes(t *testing.T) {
	tc := startCKKSCluster(t, 1, nil)
	cs := testCKKS()
	want := tc.encrypt(t, 0) // shape only; overwritten below
	x := cs.encrypt(t, 0.5, -0.25)
	cwant, _, err := dialCKKS(t, tc, tc.backends[0].addr).CKKSMul(x, x)
	if err != nil {
		t.Fatal(err)
	}
	for name, script := range map[string]func(cmd uint8) cloud.Reply{
		"retryable refusal": func(uint8) cloud.Reply {
			return &cloud.ServerError{Code: cloud.CodeUnavailable, Msg: "scripted: overloaded"}
		},
		"reply out of range": func(cmd uint8) cloud.Reply {
			if cmd == cloud.CmdCKKSMul {
				return &cloud.Response{CKKSResult: outOfRangeCKKS(cwant), ComputeNanos: 1}
			}
			return &cloud.Response{Result: outOfRange(want), ComputeNanos: 1}
		},
	} {
		t.Run(name+"/mux", func(t *testing.T) {
			node, backend := startScriptedNode(t, tc.params, script)
			srv, addr := routedTier(t, tc, backend)
			tenant := tenantWithPrimary(t, srv.Router, backend.ID)
			tc.backends[0].eng.SetRelinKey(tenant, tc.rk)
			cs.install(tc.backends[0].eng, tenant)
			client, err := cloud.DialTenant(addr, tc.params, tenant)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.EnableCKKS(cs.cp)
			for i := uint64(1); i <= 3; i++ {
				prod, _, err := client.Mul(tc.encrypt(t, i+1), tc.encrypt(t, i+2))
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if got := tc.decrypt(prod); got != (i+1)*(i+2) {
					t.Fatalf("request %d decrypts to %d, want %d", i, got, (i+1)*(i+2))
				}
				cprod, _, err := client.CKKSMul(x, x)
				if err != nil || !cprod.Equal(cwant) {
					t.Fatalf("CKKS request %d: %v, or not the healthy node's answer", i, err)
				}
			}
			if node.seen.Load() != 6 {
				t.Errorf("scripted primary saw %d well-formed requests, want 6", node.seen.Load())
			}
			stats := srv.Router.Stats()
			if stats.Obs.Counters["cluster_retries"] != 6 {
				t.Errorf("cluster_retries = %d, want 6", stats.Obs.Counters["cluster_retries"])
			}
			for _, st := range stats.Backends {
				if st.ID != backend.ID {
					continue
				}
				// A refusal proves the node alive; a garbled reply is a
				// failure of the hop.
				garbled := name == "reply out of range"
				if (st.ConsecFails > 0) != garbled || garbled && !strings.Contains(st.LastErr, cloud.ErrMalformedResponse.Error()) {
					t.Errorf("breaker counts %d consecutive failures (last: %q)", st.ConsecFails, st.LastErr)
				}
			}
		})
	}
}

// TestProgramOutputThatIsAnInput: a program may hand an input straight back
// as an output, so the node's reply references an operand it materialized
// from the request frame — which must therefore outlive the reply's
// encoding. Through the routing tier, several times over so recycled (and,
// here, poisoned) operands come around again.
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
	_, addr := routedTier(t, tc)
	c, err := cloud.Dial(addr, tc.params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 6; i++ {
		in := []*fv.Ciphertext{tc.encrypt(t, i+2), tc.encrypt(t, i+5)}
		resp, err := c.RunProgram(context.Background(), prog, in)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(resp.Outputs) != 3 || !resp.Outputs[0].Equal(in[1]) || !resp.Outputs[2].Equal(in[0]) {
			t.Fatalf("run %d: passed-through outputs are not the inputs, bit for bit", i)
		}
		if got := tc.decrypt(resp.Outputs[1]); got != 2*i+7 {
			t.Fatalf("run %d: sum decrypts to %d, want %d", i, got, 2*i+7)
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
