package cloud

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestResponseRoundTripV2(t *testing.T) {
	ts := newTestSystem(t)
	a := ts.encrypt(t, 5)
	b := ts.encrypt(t, 6)

	var buf bytes.Buffer
	in := &Request{Cmd: CmdMul, Ver: ProtoV2, ID: 0xdeadbeefcafe, Tenant: "alice", A: a, B: b}
	if err := WriteRequest(&buf, ts.params, in); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(&buf, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "alice" || req.Cmd != CmdMul {
		t.Fatalf("v2 header did not round trip: %+v", req)
	}
	if !req.A.Equal(a) || !req.B.Equal(b) {
		t.Fatal("v2 payload did not round trip")
	}
	// The request ID is the mux frame's: the request bytes carry none.
	var other bytes.Buffer
	in.ID = 1
	if err := WriteRequest(&other, ts.params, in); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	in.ID = 2
	if err := WriteRequest(&buf, ts.params, in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), other.Bytes()) {
		t.Fatal("the request ID reached the request bytes")
	}

	// v2 OK response.
	buf.Reset()
	if err := WriteResponse(&buf, ts.params, &Response{Ver: ProtoV2, ID: 7, Result: a, ComputeNanos: 42}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponseV(&buf, ts.params, ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ver != ProtoV2 || !got.Result.Equal(a) || got.ComputeNanos != 42 {
		t.Fatalf("v2 response round trip: %+v", got)
	}

	// v2 error response carries the error code.
	buf.Reset()
	if err := WriteResponse(&buf, ts.params, &Response{Ver: ProtoV2, ID: 9, Err: "boom", Code: CodeUnavailable}); err != nil {
		t.Fatal(err)
	}
	got, err = ReadResponseV(&buf, ts.params, ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != "boom" || got.Code != CodeUnavailable {
		t.Fatalf("v2 error response round trip: %+v", got)
	}
}

func TestV2RequestValidation(t *testing.T) {
	ts := newTestSystem(t)
	// Oversized tenant refused at write time.
	long := strings.Repeat("x", MaxTenantLen+1)
	var buf bytes.Buffer
	if err := WriteRequest(&buf, ts.params, &Request{Cmd: CmdPing, Ver: ProtoV2, Tenant: long}); err == nil {
		t.Fatal("oversized tenant serialized")
	}
	// Unknown future version refused at read time.
	buf.Reset()
	buf.Write(protocolMagicV2[:])
	buf.WriteByte(9) // version from the future
	buf.WriteByte(CmdPing)
	buf.Write(make([]byte, 8+1))
	if _, err := ReadRequest(&buf, ts.params); err == nil {
		t.Fatal("unknown protocol version accepted")
	}
}

// TestServerTenantRouting: a v2 client's tenant selects the evaluation-key
// namespace; a tenant without keys gets a deterministic (non-retryable)
// application error, and the error code survives the wire.
func TestServerTenantRouting(t *testing.T) {
	ts := newTestSystem(t)
	ts.eng.SetRelinKey("alice", ts.rk)
	_, addr := startServer(t, ts)

	a, b := ts.encrypt(t, 9), ts.encrypt(t, 13)

	alice, err := DialTenant(addr, ts.params, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	prod, _, err := alice.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.decrypt(prod); got != 117 {
		t.Fatalf("9*13 = %d under tenant alice", got)
	}

	mallory, err := DialTenant(addr, ts.params, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	defer mallory.Close()
	_, _, err = mallory.Mul(a, b)
	if err == nil {
		t.Fatal("mul for a tenant without keys succeeded")
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a ServerError: %v", err, err)
	}
	if se.Retryable() {
		t.Fatalf("missing evaluation key classified retryable: %+v", se)
	}
	// The connection survives the application error.
	if err := mallory.Ping(); err != nil {
		t.Fatalf("connection broken after tenant error: %v", err)
	}
}

func TestServerInfo(t *testing.T) {
	ts := newTestSystem(t)
	ts.eng.SetRelinKey("alice", ts.rk)
	srv := NewServer(ts.params, ts.eng, nil)
	srv.NodeID = "node-under-test"
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("server exited with %v", err)
		}
	})

	client, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	info, err := client.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Proto != ProtoV2 || !info.TenantAware || info.NodeID != "node-under-test" {
		t.Fatalf("info = %+v", info)
	}
	if info.Workers != 2 {
		t.Fatalf("info.Workers = %d, want 2", info.Workers)
	}
	found := false
	for _, tn := range info.Tenants {
		if tn == "alice" {
			found = true
		}
	}
	if !found {
		t.Fatalf("info.Tenants %v misses alice", info.Tenants)
	}
	// Interleaving info with compute ops must keep the stream in sync.
	a, b := ts.encrypt(t, 2), ts.encrypt(t, 3)
	if _, _, err := client.Add(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Info(context.Background()); err != nil {
		t.Fatal(err)
	}
	if client.Broken() {
		t.Fatal("stream desynced by info exchange")
	}
}

// fakeSession accepts connections on ln and speaks the session framing to
// each: the hello, then every request frame's payload handed to answer, whose
// result — when it returns one — goes back as the reply frame. An answer of
// nil leaves the request unanswered.
func fakeSession(t *testing.T, ln net.Listener, answer func(payload []byte) []byte) {
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				window, err := ReadMuxHello(conn)
				if err != nil || WriteMuxHello(conn, window) != nil {
					return
				}
				for {
					f, _, err := readMuxFrame(conn, func() int { return 1 << 30 }, false)
					if err != nil {
						return
					}
					if rep := answer(f.Payload); rep != nil {
						if WriteMuxFrame(conn, MuxFrameResponse, f.ID, rep) != nil {
							return
						}
					}
				}
			}()
		}
	}()
}

// TestClientContextDeadline: a context deadline must bound the exchange even
// when the server completes the hello and then never answers — the exchange
// ends at the deadline, and abandoning it leaves the session usable.
func TestClientContextDeadline(t *testing.T) {
	ts := newTestSystem(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fakeSession(t, ln, func([]byte) []byte { return nil })

	client, err := Dial(ln.Addr().String(), ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	a, b := ts.encrypt(t, 2), ts.encrypt(t, 3)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, _, err = client.AddCtx(ctx, a, b)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Fatal("exchange against a hung server succeeded")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("exchange %d: error %v does not surface the context deadline", i, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("exchange %d: deadline of 100ms honored only after %v", i, elapsed)
		}
		if client.Broken() {
			t.Fatalf("exchange %d: an abandoned exchange broke the session", i)
		}
	}
}

// TestClientContextCancel: cancellation (not just deadlines) interrupts an
// in-flight exchange promptly.
func TestClientContextCancel(t *testing.T) {
	ts := newTestSystem(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fakeSession(t, ln, func([]byte) []byte { return nil })

	client, err := Dial(ln.Addr().String(), ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = client.PingCtx(ctx)
	if err == nil {
		t.Fatal("ping against a mute server succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not surface the cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation honored only after %v", elapsed)
	}
}
