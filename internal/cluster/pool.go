package cluster

import (
	"context"
	"errors"
	"sync"

	"repro/internal/cloud"
	"repro/internal/obs"
)

// member is what the router keeps per backend: the one session every attempt
// and probe goes through, and the histogram its attempts are timed into,
// resolved once instead of by name on every attempt.
type member struct {
	*muxPool
	latency *obs.Histogram
}

// muxPool holds ONE shared cloud.Client session per backend: it is
// concurrent-safe and window-bounded, so N in-flight requests cost one
// socket instead of N. get hands the shared session to any number of
// callers; a broken one is replaced on the next get, when no exchange can be
// mid-flight on a fresh dial. A node that cannot frame a request (a CKKS
// command on a node without CKKS) answers it with a typed CodeApp error and
// keeps the session.
type muxPool struct {
	dial func(ctx context.Context) (*cloud.Client, error)

	mu  sync.Mutex
	cur *cloud.Client
	// dialing is closed when the dial in progress, if any, has ended: the
	// dial runs outside mu, so every other caller waits for it only as long
	// as its own context allows.
	dialing chan struct{}
	closed  bool
}

// errPoolClosed is returned by a pool after close.
var errPoolClosed = errors.New("cluster: connection pool closed")

// get returns the backend's shared session, dialing (or replacing a broken
// one) on demand under ctx — the attempt's or the probe's deadline bounds the
// connect and the hello. A closed pool refuses, so a request that fetched the
// pool just before its node was retired does not re-dial a drained backend.
func (p *muxPool) get(ctx context.Context) (*cloud.Client, error) {
	for {
		p.mu.Lock()
		switch {
		case p.closed:
			p.mu.Unlock()
			return nil, errPoolClosed
		case p.cur != nil && !p.cur.Broken():
			cur := p.cur
			p.mu.Unlock()
			return cur, nil
		case p.dialing != nil:
			wait := p.dialing
			p.mu.Unlock()
			select {
			case <-wait: // look again: the new session, or this caller's turn to dial
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		stale, done := p.cur, make(chan struct{})
		p.cur, p.dialing = nil, done
		p.mu.Unlock()
		if stale != nil {
			stale.Close()
		}
		c, err := p.dial(ctx)
		p.mu.Lock()
		p.dialing = nil
		close(done)
		if err == nil && p.closed {
			c.Close()
			c, err = nil, errPoolClosed
		}
		if err == nil {
			p.cur = c
		}
		p.mu.Unlock()
		return c, err
	}
}

// close tears down the shared session.
func (p *muxPool) close() {
	p.mu.Lock()
	cur := p.cur
	p.cur = nil
	p.closed = true
	p.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}
