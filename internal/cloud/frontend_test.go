package cloud

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"
)

// TestReplyWriteBounded: a client that pipelines requests and never reads a
// reply must not pin a handler forever. Once the socket buffers are full the
// handler sits in a reply write; the front-end's timeout has to cut that
// write short — a read deadline (all the front-end used to set, and all
// Shutdown slams) cannot — so the handler exits, gives its buffers back, and
// Shutdown drains. Both framings.
func TestReplyWriteBounded(t *testing.T) {
	const timeout = 300 * time.Millisecond
	ts := newTestSystem(t)
	a, b := ts.encrypt(t, 3), ts.encrypt(t, 4)

	for _, mode := range []string{"sequential", "mux"} {
		t.Run(mode, func(t *testing.T) {
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
			if mode == "mux" {
				if err := WriteMuxHello(conn, DefaultMuxWindow); err != nil {
					t.Fatal(err)
				}
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
				if mode == "mux" {
					err = WriteMuxFrame(conn, MuxFrameRequest, id, frame.Bytes())
				} else {
					_, err = conn.Write(frame.Bytes())
				}
				if err != nil {
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
}
