package cloud

import (
	"context"
	"encoding/binary"
	"errors"
	"math/bits"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rlwe"
)

// flippingRelay is relay with a router whose memory goes bad: while armed,
// it clears one bit of the first residue word of the first ciphertext in the
// request it is about to forward (after its front-end verified the request's
// checksum and it range-checked the request) or in the reply it is about to
// relay (after its session verified the reply's checksum and it
// range-checked the reply).
type flippingRelay struct {
	via     *Client
	inReply bool // flip the reply's bytes, not the request's
	armed   atomic.Bool
	flipped atomic.Int64
}

// clearTopBit clears the highest set bit of the residue word at b[off:]: the
// word stays below its modulus, so no range check can see the change, and the
// residue moves by up to 2^30 — far enough that the ciphertext decrypts to
// another value. A zero word stays as it is, and the test then finds the
// node's answer where it wants an error.
func clearTopBit(b []byte, off int) {
	if w := binary.LittleEndian.Uint32(b[off:]); w != 0 {
		binary.LittleEndian.PutUint32(b[off:], w&^(1<<(bits.Len32(w)-1)))
	}
}

func (r *flippingRelay) Handle(f *Frame) Reply {
	if err := f.Check(); err != nil {
		return &ServerError{Code: CodeApp, Msg: err.Error()}
	}
	armed := r.armed.Swap(false)
	if armed && !r.inReply {
		// Operand A's first element, row 0, coefficient 0.
		clearTopBit(f.b, f.body+rlwe.HeaderLen(false))
		r.flipped.Add(1)
	}
	raw, err := r.via.Exchange(context.Background(), f)
	if err == nil {
		if err = raw.Check(); err != nil {
			raw.Release()
		}
	}
	if err != nil {
		return &ServerError{Code: CodeUnavailable, Msg: err.Error()}
	}
	if armed && r.inReply && raw.ServerError() == nil {
		// The result's first element, row 0, coefficient 0: after the status
		// byte, compute nanos and worker, and the ciphertext header.
		clearTopBit(raw.b, replyHeadLen+12+rlwe.HeaderLen(false))
		r.flipped.Add(1)
	}
	return raw
}

// TestRouterMemoryFlip: a bit that flips in a relay's memory — after the
// relay verified the bytes it received and before it sends them on — is
// caught by the far end, because the relay forwards every payload under the
// checksum its sender wrote rather than one it computed over its own copy.
// A flipped request comes back as the node's typed, retryable refusal
// (CodeUnavailable, payload checksum); a flipped reply fails the client's
// exchange with ErrMuxPayloadChecksum. Either way the session goes on and the
// next exchange through the same relay is the node's answer bit for bit.
// Never a wrong answer: a relay that checksummed its own copy would hand the
// client a valid frame around a ciphertext that decrypts to another value.
func TestRouterMemoryFlip(t *testing.T) {
	ts := newTestSystem(t)
	_, node := startServer(t, ts)
	direct, err := Dial(node, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	a, b := ts.encrypt(t, 20), ts.encrypt(t, 22)
	want, _, err := direct.Add(a, b)
	if err != nil || ts.decrypt(want) != 42 {
		t.Fatalf("direct add: %v", err)
	}

	for _, tc := range []struct {
		name    string
		inReply bool
		caught  func(err error) bool
	}{
		{"request", false, func(err error) bool {
			var se *ServerError
			return errors.As(err, &se) && se.Retryable() && strings.Contains(se.Msg, ErrMuxPayloadChecksum.Error())
		}},
		{"reply", true, func(err error) bool { return errors.Is(err, ErrMuxPayloadChecksum) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend, err := Dial(node, ts.params)
			if err != nil {
				t.Fatal(err)
			}
			defer backend.Close()
			rl := &flippingRelay{via: backend, inReply: tc.inReply}
			fe := NewFrontend(ts.params, rl, nil)
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
			cl, err := Dial(addr, ts.params)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			for round := 0; round < 3; round++ {
				rl.armed.Store(true)
				got, _, err := cl.Add(a, b)
				switch {
				case err == nil && !got.Equal(want):
					t.Fatalf("round %d: a flipped %s was answered with a wrong ciphertext (decrypts to %d, want 42)", round, tc.name, ts.decrypt(got))
				case err == nil:
					t.Fatalf("round %d: a flipped %s was answered as if nothing had flipped", round, tc.name)
				case !tc.caught(err):
					t.Fatalf("round %d: a flipped %s failed with %v, want the typed retryable payload checksum error", round, tc.name, err)
				}
				if cl.Broken() || backend.Broken() {
					t.Fatalf("round %d: a payload checksum failure broke a session", round)
				}
				// The same sessions, nothing flipped: the node's answer.
				got, _, err = cl.Add(a, b)
				if err != nil || !got.Equal(want) {
					t.Fatalf("round %d: unflipped add after the flip: %v", round, err)
				}
			}
			if n := rl.flipped.Load(); n != 3 {
				t.Fatalf("the relay flipped %d %ss, want 3", n, tc.name)
			}
		})
	}
}
