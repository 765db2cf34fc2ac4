package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
)

// TestPoolRefusesAfterClose: a request that fetched a backend's pool just
// before Router.Close or a membership change retired it must fail with
// errPoolClosed — never dial a fresh session to the drained node.
func TestPoolRefusesAfterClose(t *testing.T) {
	dials := 0
	p := &muxPool{dial: func(context.Context) (*cloud.Client, error) {
		dials++
		return nil, errors.New("dialed a closed pool")
	}}
	p.close()
	if c, err := p.get(context.Background()); !errors.Is(err, errPoolClosed) {
		t.Errorf("get after close = (%v, %v), want errPoolClosed", c, err)
	}
	if dials != 0 {
		t.Errorf("a closed pool dialed %d times", dials)
	}
}

// TestBackendDialHonoursAttemptDeadline: a backend that accepts TCP and never
// answers the session hello costs an attempt its own deadline, not
// cloud.DialTimeout — the dial runs under the attempt's context — and a
// second attempt that arrives while the first is dialing waits for that dial
// only as long as its own deadline allows: it is not serialized behind it.
func TestBackendDialHonoursAttemptDeadline(t *testing.T) {
	tc := startCluster(t, 1, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn) // read nothing, answer nothing
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})

	const attempt = 300 * time.Millisecond
	client, err := NewClient(Config{
		Params:         tc.params,
		Backends:       []Backend{{ID: "mute", Addr: ln.Addr().String()}},
		MaxAttempts:    1,
		AttemptTimeout: attempt,
		Health:         HealthConfig{Interval: time.Hour, FailThreshold: 100, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	a, b := tc.encrypt(t, 1), tc.encrypt(t, 2)
	var wg sync.WaitGroup
	var elapsed [2]time.Duration
	var errs [2]error
	for i := range elapsed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, _, errs[i] = client.Add(context.Background(), "", a, b)
			elapsed[i] = time.Since(start)
		}()
		time.Sleep(attempt / 3) // the second arrives while the first dials
	}
	wg.Wait()
	for i, d := range elapsed {
		if errs[i] == nil {
			t.Fatalf("attempt %d through a backend that never says hello succeeded", i)
		}
		if d > 2*attempt {
			t.Errorf("attempt %d took %v (%v), want about its deadline of %v", i, d, errs[i], attempt)
		}
	}
}

// TestDeafBackendFailsOver: a backend that answers the session hello and then
// never reads. Once the kernel's buffers toward it are full, a routed frame
// write to it blocks; that write must end at the attempt's deadline, and the
// attempts and probes queued behind it at theirs, so every Add still lands
// on the healthy node within about two attempts, and Router.Close returns.
func TestDeafBackendFailsOver(t *testing.T) {
	tenants := make([]string, 16)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	tc := startCluster(t, 1, tenants)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
			go func() {
				if _, err := cloud.ReadMuxHello(conn); err == nil {
					cloud.WriteMuxHello(conn, cloud.MaxMuxWindow) // then read nothing
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})

	const attempt = 300 * time.Millisecond
	client, err := NewClient(Config{
		Params:         tc.params,
		Backends:       append([]Backend{{ID: "deaf", Addr: ln.Addr().String()}}, tc.backendList()...),
		MaxAttempts:    2,
		AttemptTimeout: attempt,
		// Probe often, and never eject: every Add tries the deaf node first.
		Health: HealthConfig{Interval: 20 * time.Millisecond, Timeout: attempt, FailThreshold: 1 << 30, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			go client.Close() // may hang on the fault under test; do not wait
		}
	})
	tenant := ""
	for _, name := range tenants {
		if client.Router().Candidates(name)[0] == "deaf" {
			tenant = name
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant's primary is the deaf node")
	}

	// 64 concurrent Adds a round of about 24 KB a frame: a few rounds fill
	// the loopback buffers toward the deaf node, the rest run against them.
	const rounds, width = 10, 64
	a, b := tc.encrypt(t, 20), tc.encrypt(t, 22)
	done := make(chan error, 1)
	go func() {
		var wg sync.WaitGroup
		errs := make(chan error, width)
		for r := 0; r < rounds; r++ {
			for i := 0; i < width; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					start := time.Now()
					sum, _, err := client.Add(context.Background(), tenant, a, b)
					switch {
					case err != nil:
						errs <- err
					case tc.decrypt(sum) != 42:
						errs <- errors.New("wrong sum")
					case time.Since(start) > 4*attempt:
						errs <- fmt.Errorf("an Add took %v, want about two attempts of %v", time.Since(start), attempt)
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errs:
				done <- fmt.Errorf("round %d: %w", r, err)
				return
			default:
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Duration(rounds) * 6 * attempt):
		t.Fatal("routed Adds hang behind a backend that stopped reading")
	}
	stopped := make(chan struct{})
	go func() {
		client.Close()
		close(stopped)
	}()
	select {
	case <-stopped:
		closed = true
	case <-time.After(5 * attempt):
		t.Fatal("Router.Close hangs behind a backend that stopped reading")
	}
}

// TestConcurrentRoutedAddsFitTheWindow: the router asks each backend for the
// largest window a node grants, so 64 concurrent routed Adds to a one-node
// ring all run — the node's admission queue stays the one place that refuses
// overload, and none fails on the router's own side of the session with
// cloud.ErrWindowExhausted.
func TestConcurrentRoutedAddsFitTheWindow(t *testing.T) {
	tc := startCluster(t, 1, nil)
	client, err := NewClient(Config{
		Params:   tc.params,
		Backends: tc.backendList(),
		Health:   HealthConfig{Interval: time.Hour, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const n = 64
	a, b := tc.encrypt(t, 20), tc.encrypt(t, 22)
	start := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sum, _, err := client.Add(context.Background(), "", a, b)
			if err == nil && tc.decrypt(sum) != 42 {
				err = errors.New("wrong sum")
			}
			errs[i] = err
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if errors.Is(err, cloud.ErrWindowExhausted) {
			t.Fatalf("add %d: the router's own window refused it: %v", i, err)
		}
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
}
