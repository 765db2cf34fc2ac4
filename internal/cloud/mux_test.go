package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fv"
)

func TestMuxHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxHello(&buf, 48); err != nil {
		t.Fatal(err)
	}
	if w, err := ReadMuxHello(&buf); err != nil || w != 48 {
		t.Fatalf("hello round trip: window %d, err %v", w, err)
	}
	// Corrupted hellos are connection-fatal.
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"bad magic", []byte("HEAX\x02\x20\x00")},
		{"bad version", []byte("HEAM\x09\x20\x00")},
		{"zero window", []byte("HEAM\x03\x00\x00")},
		{"truncated", []byte("HEAM\x03")},
	} {
		if _, err := ReadMuxHello(bytes.NewReader(tc.raw)); !errors.Is(err, ErrMalformedMuxFrame) {
			t.Fatalf("%s: err %v, want ErrMalformedMuxFrame", tc.name, err)
		}
	}
	// Both ends ship together: an older peer is told so, not served.
	for _, v := range []byte{1, 2} {
		want := fmt.Sprintf("unsupported mux version %d", v)
		if _, err := ReadMuxHello(bytes.NewReader([]byte{'H', 'E', 'A', 'M', v, 0x20, 0})); err == nil ||
			!strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d hello: err %v, want %s", v, err, want)
		}
	}
	if _, err := ReadMuxHello(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err %v, want io.EOF", err)
	}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	payload := []byte("the payload does not matter to the framing layer")
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, MuxFrameRequest, 42, payload); err != nil {
		t.Fatal(err)
	}
	f, err := DecodeMuxFrame(&buf, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MuxFrameRequest || f.ID != 42 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame round trip: %+v", f)
	}
}

// TestMuxFrameCorruption pins the two blast radii: header damage is
// connection-fatal (the length cannot be trusted), payload damage is
// per-request (the ID and boundary survive).
func TestMuxFrameCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 300)
	var buf bytes.Buffer
	if err := WriteMuxFrame(&buf, MuxFrameResponse, 7, payload); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(i int) []byte {
		raw := bytes.Clone(good)
		raw[i] ^= 0x40
		return raw
	}

	// Any header byte flipped → malformed, stream untrusted.
	for _, i := range []int{0, 4, 10, 15, 19} {
		_, err := DecodeMuxFrame(bytes.NewReader(flip(i)), 1<<16)
		if !errors.Is(err, ErrMalformedMuxFrame) {
			t.Fatalf("header byte %d flipped: err %v, want ErrMalformedMuxFrame", i, err)
		}
	}

	// A payload byte flipped → typed checksum error that still names the
	// request and consumed exactly the frame, so the stream stays in sync.
	r := bytes.NewReader(flip(muxHeaderLen + 100))
	f, err := DecodeMuxFrame(r, 1<<16)
	if !errors.Is(err, ErrMuxPayloadChecksum) {
		t.Fatalf("payload flipped: err %v, want ErrMuxPayloadChecksum", err)
	}
	if f == nil || f.ID != 7 {
		t.Fatalf("payload checksum error lost the request ID: %+v", f)
	}
	if r.Len() != 0 {
		t.Fatalf("decoder left %d bytes of the damaged frame unread", r.Len())
	}

	// Truncation inside the frame → malformed.
	for _, cut := range []int{3, muxHeaderLen, muxHeaderLen + 100} {
		_, err := DecodeMuxFrame(bytes.NewReader(good[:cut]), 1<<16)
		if !errors.Is(err, ErrMalformedMuxFrame) {
			t.Fatalf("truncated at %d: err %v, want ErrMalformedMuxFrame", cut, err)
		}
	}
	// Clean EOF between frames is a hangup, not corruption.
	if _, err := DecodeMuxFrame(bytes.NewReader(nil), 1<<16); err != io.EOF {
		t.Fatalf("empty stream: err %v, want io.EOF", err)
	}
	// A length beyond the bound is refused before allocation.
	if _, err := DecodeMuxFrame(bytes.NewReader(good), len(payload)-1); !errors.Is(err, ErrMalformedMuxFrame) {
		t.Fatalf("oversized payload accepted: %v", err)
	}
}

// fakeMuxServer accepts one mux session on a pipe and hands frames to serve.
func fakeMuxServer(t *testing.T, grant int, serve func(conn net.Conn, br *bytes.Buffer)) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		if _, err := ReadMuxHello(server); err != nil {
			return
		}
		if err := WriteMuxHello(server, grant); err != nil {
			return
		}
		serve(server, nil)
	}()
	return client
}

// TestMuxOutOfOrderResponses proves interleaving: two requests in flight, the
// server answers them in reverse order, and each caller still receives the
// response carrying its own request ID.
func TestMuxOutOfOrderResponses(t *testing.T) {
	ts := newTestSystem(t)
	respFrame := func(id uint64, worker uint32) []byte {
		var buf bytes.Buffer
		resp := &Response{Ver: ProtoV2, Result: fv.NewCiphertext(ts.params, 2), Worker: worker}
		if err := WriteResponse(&buf, ts.params, resp); err != nil {
			t.Error(err)
		}
		var frame bytes.Buffer
		if err := WriteMuxFrame(&frame, MuxFrameResponse, id, buf.Bytes()); err != nil {
			t.Error(err)
		}
		return frame.Bytes()
	}

	gotBoth := make(chan struct{})
	conn := fakeMuxServer(t, 8, func(server net.Conn, _ *bytes.Buffer) {
		defer server.Close()
		maxP := codecFor(ts.params, nil).maxMuxPayload
		f1, err := DecodeMuxFrame(server, maxP)
		if err != nil {
			return
		}
		f2, err := DecodeMuxFrame(server, maxP)
		if err != nil {
			return
		}
		close(gotBoth)
		// Answer in reverse: the second request completes first.
		server.Write(respFrame(f2.ID, 22))
		server.Write(respFrame(f1.ID, 11))
	})
	mc, err := newClient(context.Background(), conn, ts.params, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	type out struct {
		id     uint64 // the frame's: the reply bytes carry none
		worker uint32
		err    error
	}
	run := func(ch chan out) {
		resp, err := mc.Do(context.Background(), &Request{Cmd: CmdPing})
		if err != nil {
			ch <- out{err: err}
			return
		}
		ch <- out{id: resp.ID, worker: resp.Worker}
	}
	ch1, ch2 := make(chan out, 1), make(chan out, 1)
	go run(ch1)
	// The pipe is synchronous, so the first frame is fully read by the fake
	// server before the second submission writes — the IDs are ordered.
	<-time.After(10 * time.Millisecond)
	go run(ch2)
	<-gotBoth
	o1, o2 := <-ch1, <-ch2
	if o1.err != nil || o2.err != nil {
		t.Fatalf("exchanges failed: %v / %v", o1.err, o2.err)
	}
	if o1.worker != 11 || o2.worker != 22 || o1.id != 1 || o2.id != 2 {
		t.Fatalf("responses crossed: request 1 got worker %d (ID %d), request 2 got %d (ID %d) (want 11/22, IDs 1/2)",
			o1.worker, o1.id, o2.worker, o2.id)
	}
}

// TestMuxWindowBackpressure proves the typed fail-fast: with every window
// slot occupied a new submission returns ErrWindowExhausted immediately —
// no queueing, no deadlock — and a freed slot makes the next submission work.
func TestMuxWindowBackpressure(t *testing.T) {
	ts := newTestSystem(t)
	firstSeen := make(chan uint64, 1)
	release := make(chan struct{})
	conn := fakeMuxServer(t, 1, func(server net.Conn, _ *bytes.Buffer) {
		defer server.Close()
		for {
			f, err := DecodeMuxFrame(server, codecFor(ts.params, nil).maxMuxPayload)
			if err != nil {
				return
			}
			select {
			case firstSeen <- f.ID:
				<-release // hold the first request in flight
			default:
			}
			var buf bytes.Buffer
			WriteResponse(&buf, ts.params, &Response{Ver: ProtoV2, ID: f.ID, Result: fv.NewCiphertext(ts.params, 2)})
			WriteMuxFrame(server, MuxFrameResponse, f.ID, buf.Bytes())
		}
	})
	mc, err := newClient(context.Background(), conn, ts.params, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if mc.Window() != 1 {
		t.Fatalf("granted window %d, want 1", mc.Window())
	}

	done := make(chan error, 1)
	go func() { done <- mc.PingCtx(context.Background()) }()
	<-firstSeen // the only window slot is now provably occupied

	if err := mc.PingCtx(context.Background()); !errors.Is(err, ErrWindowExhausted) {
		t.Fatalf("submission past the window: err %v, want ErrWindowExhausted", err)
	}
	if mc.Broken() {
		t.Fatal("window exhaustion broke the connection")
	}

	close(release) // first exchange completes, freeing the slot
	if err := <-done; err != nil {
		t.Fatalf("held exchange failed: %v", err)
	}
	if err := mc.PingCtx(context.Background()); err != nil {
		t.Fatalf("submission after the window freed: %v", err)
	}
}

// TestMuxCancellationKeepsConnection: abandoning an exchange via context must
// not poison the stream — the late response is discarded by ID and the next
// exchange proceeds.
func TestMuxCancellationKeepsConnection(t *testing.T) {
	ts := newTestSystem(t)
	seen := make(chan uint64, 4)
	release := make(chan struct{})
	var wmu sync.Mutex // a frame is two writes: one response's must not split another's
	conn := fakeMuxServer(t, 4, func(server net.Conn, _ *bytes.Buffer) {
		defer server.Close()
		for {
			f, err := DecodeMuxFrame(server, codecFor(ts.params, nil).maxMuxPayload)
			if err != nil {
				return
			}
			seen <- f.ID
			go func(id uint64) {
				<-release
				var buf bytes.Buffer
				WriteResponse(&buf, ts.params, &Response{Ver: ProtoV2, ID: id, Result: fv.NewCiphertext(ts.params, 2)})
				wmu.Lock()
				defer wmu.Unlock()
				WriteMuxFrame(server, MuxFrameResponse, id, buf.Bytes())
			}(f.ID)
		}
	})
	mc, err := newClient(context.Background(), conn, ts.params, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- mc.PingCtx(ctx) }()
	<-seen
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled exchange: err %v, want context.Canceled", err)
	}
	if mc.Broken() {
		t.Fatal("cancellation broke the mux connection")
	}

	// The server now answers everything, including the abandoned ID; the
	// reader must discard that orphan and deliver the live exchange.
	close(release)
	if err := mc.PingCtx(context.Background()); err != nil {
		t.Fatalf("exchange after cancellation: %v", err)
	}
}

// TestMuxServerEndToEnd runs the real server: concurrent multiplications on
// ONE connection, each decrypting to its own product — out-of-order
// completion across the engine's workers resolves to the right request IDs.
func TestMuxServerEndToEnd(t *testing.T) {
	ts := newTestSystem(t)
	_, addr := startServer(t, ts)

	mc, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if mc.Window() != DefaultMuxWindow {
		t.Fatalf("window %d, want %d", mc.Window(), DefaultMuxWindow)
	}
	if err := mc.PingCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	info, err := mc.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Proto != ProtoV2 || !info.TenantAware {
		t.Fatalf("info over mux: %+v", info)
	}

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := ts.encrypt(t, uint64(i+2))
			b := ts.encrypt(t, uint64(i+5))
			prod, hwTime, err := mc.MulCtx(context.Background(), a, b)
			if err != nil {
				errs[i] = err
				return
			}
			if hwTime <= 0 {
				errs[i] = errors.New("no simulated time reported")
				return
			}
			want := uint64((i + 2) * (i + 5) % 257)
			if got := ts.decrypt(prod); got != want {
				errs[i] = errResult{got, want}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mux exchange %d: %v", i, err)
		}
	}

	// An application error (rotation without its key) fails only its own
	// exchange; the session survives.
	ct := ts.encrypt(t, 3)
	if _, _, err := mc.RotateCtx(context.Background(), ct, 5); err == nil {
		t.Fatal("rotation with missing key should error")
	} else {
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("rotate error not a ServerError: %v", err)
		}
	}
	if err := mc.PingCtx(context.Background()); err != nil {
		t.Fatalf("session broken after error response: %v", err)
	}
}

// TestMuxGarbledFrameIsolated is the fault-injection half of the protocol
// contract: one frame garbled in flight (through the chaos proxy) must fail
// exactly the request it carried — typed, retryable — while the exchanges
// before and after it on the same connection succeed.
func TestMuxGarbledFrameIsolated(t *testing.T) {
	ts := newTestSystem(t)
	_, addr := startServer(t, ts)

	inj := faults.New(4242)
	proxy, err := faults.NewProxy(addr, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	mc, err := Dial(proxy.Addr(), ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	mul := func(x, y uint64) (uint64, error) {
		prod, _, err := mc.MulCtx(context.Background(), ts.encrypt(t, x), ts.encrypt(t, y))
		if err != nil {
			return 0, err
		}
		return ts.decrypt(prod), nil
	}

	// A clean exchange first, so the fault can be aimed past the hellos.
	if got, err := mul(3, 4); err != nil || got != 12 {
		t.Fatalf("pre-fault mul: %d, %v", got, err)
	}

	// Arm one garble a few chunks into the NEXT request's upload: a Mul
	// request is ~50 proxy chunks of ciphertext, so chunk seen+3 is deep in
	// the frame payload, far past the 21-byte header.
	seen := inj.Stats().Seen["frame"]
	inj.Arm(faults.Spec{Class: faults.ClassFrame, After: seen + 3, Mode: faults.ModeGarble})

	_, err = mul(5, 6)
	if err == nil {
		t.Fatal("garbled frame delivered a result")
	}
	if inj.Stats().TotalFired != 1 {
		t.Fatalf("fault did not fire: %+v", inj.Stats())
	}
	// Either side may catch it: the server answers with a retryable typed
	// error (upload garbled), or the client's decoder rejects the payload
	// (download garbled). Both are per-request verdicts.
	var se *ServerError
	switch {
	case errors.As(err, &se):
		if !se.Retryable() {
			t.Fatalf("garbled-frame ServerError not retryable: %v", se)
		}
	case errors.Is(err, ErrMuxPayloadChecksum) || errors.Is(err, ErrMalformedResponse):
		// client-side detection
	default:
		t.Fatalf("garbled frame surfaced untyped: %v", err)
	}
	if mc.Broken() {
		t.Fatal("one garbled frame killed the whole connection")
	}

	// The same connection keeps serving.
	if got, err := mul(7, 8); err != nil || got != 56 {
		t.Fatalf("post-fault mul on the same connection: %d, %v", got, err)
	}
}

// TestMuxPayloadIsOneMessage: a relay forwards a payload under the checksum
// its sender wrote, which covers every byte of it, so a payload must be
// exactly one request or reply. A request with bytes after it is refused by
// the front-end (CodeApp, malformed request) and a reply with bytes after it
// by the client (ErrMalformedResponse); either way the session goes on.
func TestMuxPayloadIsOneMessage(t *testing.T) {
	ts := newTestSystem(t)
	var ping bytes.Buffer
	if err := WriteRequest(&ping, ts.params, &Request{Cmd: CmdPing}); err != nil {
		t.Fatal(err)
	}

	t.Run("request", func(t *testing.T) {
		_, addr := startServer(t, ts)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := WriteMuxHello(conn, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMuxHello(conn); err != nil {
			t.Fatal(err)
		}
		for id, payload := range [][]byte{append(bytes.Clone(ping.Bytes()), 'x'), ping.Bytes()} {
			if err := WriteMuxFrame(conn, MuxFrameRequest, uint64(id+1), payload); err != nil {
				t.Fatal(err)
			}
			f, err := DecodeMuxFrame(conn, 1<<20)
			if err != nil || f.ID != uint64(id+1) {
				t.Fatalf("reply frame %d: %+v, %v", id+1, f, err)
			}
			rep, err := readReply(bytes.NewReader(f.Payload), codecFor(ts.params, nil), CmdPing)
			se, refused := rep.(*ServerError)
			switch {
			case err != nil:
				t.Fatalf("reply %d: %v", id+1, err)
			case id == 0 && (!refused || se.Code != CodeApp || !strings.Contains(se.Msg, "1 bytes after the request")):
				t.Fatalf("a ping with a byte after it was answered %+v, want a CodeApp refusal", rep)
			case id == 1 && refused:
				t.Fatalf("a ping after the refusal was refused: %v", se)
			}
		}
	})

	t.Run("reply", func(t *testing.T) {
		var pong bytes.Buffer
		if err := writeReply(&pong, &Response{Result: fv.NewCiphertext(ts.params, 2)}, ts.params); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		fakeSession(t, ln, func([]byte) []byte {
			if calls.Add(1) == 1 {
				return append(bytes.Clone(pong.Bytes()), 'x')
			}
			return pong.Bytes()
		})
		c, err := Dial(ln.Addr().String(), ts.params)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(); !errors.Is(err, ErrMalformedResponse) || !strings.Contains(err.Error(), "1 bytes after the reply") {
			t.Fatalf("a reply with a byte after it: %v, want ErrMalformedResponse", err)
		}
		if err := c.Ping(); err != nil || c.Broken() {
			t.Fatalf("a ping after the refused reply: %v (broken %v)", err, c.Broken())
		}
	})
}
