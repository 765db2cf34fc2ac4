package cloud

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

// Every test of this package runs with the pools poisoning what is released
// to them (see PoisonReleased): the golden, round-trip and end-to-end tests
// double as use-after-release detectors.
func TestMain(m *testing.M) {
	PoisonReleased = true
	os.Exit(m.Run())
}

// gated holds every Mul inside the handler until the gate opens, so a test
// can cancel an exchange that is provably in flight.
type gated struct {
	Handler
	entered chan struct{}
	gate    chan struct{}
}

func (g *gated) Handle(f *Frame) Reply {
	if f.Cmd == CmdMul {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Handler.Handle(f)
}

// TestMuxCancelledExchangeOwnsNothing: cancelling a mux exchange mid-flight
// abandons it — the request bytes were already written, the late reply is
// taken off the wire and dropped by the reader — without disturbing the
// buffers of the exchanges that share the session before, during and after.
func TestMuxCancelledExchangeOwnsNothing(t *testing.T) {
	ts := newTestSystem(t)
	g := &gated{Handler: NewServer(ts.params, ts.eng, nil), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	fe := NewFrontend(ts.params, g, nil)
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
	mc, err := DialMux(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	adds := func(round uint64) {
		t.Helper()
		var wg sync.WaitGroup
		for i := uint64(0); i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sum, _, err := mc.AddCtx(context.Background(), ts.encrypt(t, round+i), ts.encrypt(t, 2*i))
				if err != nil {
					t.Errorf("round %d add %d: %v", round, i, err)
				} else if got := ts.decrypt(sum); got != (round+3*i)%257 {
					t.Errorf("round %d add %d decrypts to %d, want %d", round, i, got, (round+3*i)%257)
				}
			}()
		}
		wg.Wait()
	}

	adds(10)
	ctx, cancel := context.WithCancel(context.Background())
	failed := make(chan error, 1)
	go func() {
		_, _, err := mc.MulCtx(ctx, ts.encrypt(t, 5), ts.encrypt(t, 6))
		failed <- err
	}()
	<-g.entered // the Mul is with the handler: its frame is in flight
	cancel()
	if err := <-failed; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exchange returned %v", err)
	}
	adds(20)      // while the abandoned Mul is still held server-side
	close(g.gate) // its reply now comes back to nobody
	adds(30)
	// The window slot is free again and the session healthy: a Mul completes.
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	prod, _, err := mc.MulCtx(ctx, ts.encrypt(t, 5), ts.encrypt(t, 6))
	if err != nil || ts.decrypt(prod) != 30 {
		t.Fatalf("Mul after the cancelled one: %v", err)
	}
	if mc.Broken() {
		t.Fatal("cancellation broke the mux session")
	}
}
