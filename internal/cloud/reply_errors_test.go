package cloud

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fv"
)

// corruptWrite flips one byte of the conn's nth Write (1-based), so a test
// can damage exactly one mux frame payload on the way to a real server.
type corruptWrite struct {
	net.Conn
	nth   int32
	count atomic.Int32
}

func (c *corruptWrite) Write(p []byte) (int, error) {
	if c.count.Add(1) == c.nth {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x20
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

// TestMuxChecksumFailureTypedForEveryKind: the server answers a frame whose
// payload failed its checksum without having decoded it, so it cannot know
// which reply kind the client expects. Whatever the request was, the client
// must see a retryable *ServerError{CodeUnavailable} and the session must
// survive.
func TestMuxChecksumFailureTypedForEveryKind(t *testing.T) {
	ts := newTestSystem(t)
	_, addr := startServer(t, ts)
	prog := buildTestProgram(t)

	// The deadline turns a misparsed reply (a reader waiting for bytes that
	// never come) into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	calls := map[string]func(mc *Client) error{
		"op": func(mc *Client) error {
			_, _, err := mc.AddCtx(ctx, ts.encrypt(t, 1), ts.encrypt(t, 2))
			return err
		},
		"info": func(mc *Client) error {
			_, err := mc.Info(ctx)
			return err
		},
		"program": func(mc *Client) error {
			_, err := mc.RunProgram(ctx, prog, []*fv.Ciphertext{ts.encrypt(t, 1), ts.encrypt(t, 2)})
			return err
		},
	}
	for kind, call := range calls {
		t.Run(kind, func(t *testing.T) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			// Write 1 is the hello; a frame is a header write then a payload
			// write, so write 3 is the first request's payload.
			mc, err := newClient(context.Background(), &corruptWrite{Conn: raw, nth: 3}, ts.params, "", 4)
			if err != nil {
				raw.Close()
				t.Fatal(err)
			}
			defer mc.Close()

			err = call(mc)
			var se *ServerError
			if !errors.As(err, &se) || se.Code != CodeUnavailable || !se.Retryable() {
				t.Fatalf("checksum failure on a %s request surfaced as %v, want *ServerError{CodeUnavailable}", kind, err)
			}
			if mc.Broken() {
				t.Fatal("one damaged payload killed the session")
			}
			if err := call(mc); err != nil {
				t.Fatalf("same %s request on the same session afterwards: %v", kind, err)
			}
		})
	}
}

// TestClientSurfacesServerErrorForEveryKind: a server-reported failure has
// one layout whatever the command, so every Client call — op, info, program,
// key export/import — must return it as *ServerError with its code and
// leave the connection usable.
func TestClientSurfacesServerErrorForEveryKind(t *testing.T) {
	ts := newTestSystem(t)
	const msg = "tenant over quota"

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fakeSession(t, ln, func(payload []byte) []byte {
		if _, err := ReadRequest(bytes.NewReader(payload), ts.params); err != nil {
			return nil
		}
		// The error half, byte by byte: status, code, length, message.
		frame := []byte{1, CodeQuota}
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(msg)))
		return append(frame, msg...)
	})

	c, err := Dial(ln.Addr().String(), ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	calls := []struct {
		kind string
		call func() error
	}{
		{"op", func() error { return c.PingCtx(ctx) }},
		{"info", func() error { _, err := c.Info(ctx); return err }},
		{"program", func() error {
			_, err := c.RunProgram(ctx, buildTestProgram(t), []*fv.Ciphertext{ts.encrypt(t, 1), ts.encrypt(t, 2)})
			return err
		}},
		{"key export", func() error { _, err := c.KeyExport(ctx, "alice"); return err }},
		{"key import", func() error { _, err := c.KeyImport(ctx, "alice", []byte("blob")); return err }},
	}
	for _, tc := range calls {
		err := tc.call()
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeQuota || se.Msg != msg {
			t.Fatalf("%s: server error surfaced as %v, want *ServerError{CodeQuota, %q}", tc.kind, err, msg)
		}
		if c.Broken() {
			t.Fatalf("%s: a server-reported error broke the connection", tc.kind)
		}
	}
}
