package cloud

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplyWriteBounded: a client that pipelines requests and never reads a
// reply must not pin a handler forever. Once the socket buffers are full the
// handler sits in a reply write; the front-end's timeout has to cut that
// write short — a read deadline (all the front-end used to set, and all
// Shutdown slams) cannot — so the handler exits, gives its buffers back, and
// Shutdown drains.
func TestReplyWriteBounded(t *testing.T) {
	const timeout = 300 * time.Millisecond
	ts := newTestSystem(t)
	a, b := ts.encrypt(t, 3), ts.encrypt(t, 4)

	t.Run("mux", func(t *testing.T) {
		srv := NewServer(ts.params, ts.eng, nil)
		srv.ReadTimeout = timeout
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()

		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteMuxHello(conn, DefaultMuxWindow); err != nil {
			t.Fatal(err)
		}
		// Send Adds, never read, until our own writes stall: by then the
		// server's replies have filled our receive buffer and its send
		// buffer, it has stopped reading, and our requests have backed up
		// behind it. The byte cap is far beyond any loopback socket
		// buffer pair and only keeps a broken server from looping us.
		sent, stalled := 0, false
		for id := uint64(1); sent < 1<<30; id++ {
			var frame bytes.Buffer
			req := &Request{Cmd: CmdAdd, ID: id, A: a, B: b}
			if err := WriteRequest(&frame, ts.params, req); err != nil {
				t.Fatal(err)
			}
			conn.SetWriteDeadline(time.Now().Add(timeout / 2))
			if err := WriteMuxFrame(conn, MuxFrameRequest, id, frame.Bytes()); err != nil {
				stalled = true
				break
			}
			sent += frame.Len()
		}
		if !stalled {
			t.Fatalf("wrote %d bytes of requests without reading and never stalled", sent)
		}

		// The stuck write must fail within the timeout on its own. Shutdown
		// then finds nothing left to wait for; its budget is generous
		// against the timeout and tiny against "forever".
		ctx, cancel := context.WithTimeout(context.Background(), 10*timeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("a handler is still stuck in its reply write: Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	})
}

// countingHandler answers every request with an error and counts the calls.
type countingHandler struct{ calls atomic.Int64 }

func (h *countingHandler) Handle(*Frame) Reply {
	h.calls.Add(1)
	return &ServerError{Code: CodeApp, Msg: "handled"}
}

// TestSequentialFramingRefused: a connection that opens with a bare v2
// request instead of a session hello — the retired sequential framing — is
// closed without a reply, and the handler never sees the request.
func TestSequentialFramingRefused(t *testing.T) {
	ts := newTestSystem(t)
	h := new(countingHandler)
	fe := NewFrontend(ts.params, h, nil)
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fe.Serve() }()
	defer func() {
		fe.Close()
		<-done
	}()

	for _, req := range []*Request{
		{Cmd: CmdPing, ID: 1},
		{Cmd: CmdAdd, ID: 2, A: ts.encrypt(t, 1), B: ts.encrypt(t, 2)},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteRequest(conn, ts.params, req); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 1))
		conn.Close()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: the connection stayed open", cmdName(req.Cmd))
		}
		if n != 0 || err == nil {
			t.Fatalf("%s: the front-end answered a sequential request", cmdName(req.Cmd))
		}
	}
	if n := h.calls.Load(); n != 0 {
		t.Fatalf("the handler was called %d times", n)
	}
}
