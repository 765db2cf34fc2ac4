package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/obs"
)

// transport is what the router needs of a connection to a backend: the raw
// exchange it forwards frames through, the node's info, and a ping for the
// health probe. Both the sequential *cloud.Client and the multiplexed
// *cloud.MuxClient satisfy it, so the failover walk is oblivious to which one
// a backend pool hands out.
type transport interface {
	Exchange(ctx context.Context, f *cloud.Frame) (*cloud.RawReply, error)
	Info(ctx context.Context) (*cloud.ServerInfo, error)
	PingCtx(ctx context.Context) error
	Broken() bool
	Close() error
}

// conn is one connection to a backend, remembering whether its node serves
// CKKS from the first time a CKKS frame was about to go out on it.
type conn struct {
	transport

	mu     sync.Mutex // serializes the question on a shared mux connection
	asked  bool
	ckksOK bool
}

// Exchange forwards f. A CKKS frame first asks the node's info, once per
// connection: a node without CKKS cannot frame the command — a sequential
// session would drop the connection on it — so it gets no byte of it, and the
// frame is refused the way a mux node refuses what it cannot frame, with a
// deterministic CodeApp error that proves the node alive.
func (c *conn) Exchange(ctx context.Context, f *cloud.Frame) (*cloud.RawReply, error) {
	if cloud.IsCKKSCmd(f.Cmd) {
		ok, err := c.servesCKKS(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, &cloud.ServerError{Code: cloud.CodeApp, Msg: fmt.Sprintf("cluster: the backend serves no CKKS (command %d)", f.Cmd)}
		}
	}
	return c.transport.Exchange(ctx, f)
}

func (c *conn) servesCKKS(ctx context.Context) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.asked {
		info, err := c.Info(ctx)
		if err != nil {
			return false, err
		}
		c.asked, c.ckksOK = true, info.CKKS
	}
	return c.ckksOK, nil
}

// backendPool hands out connections to one backend. get/put bracket one
// attempt; close drops everything.
type backendPool interface {
	get() (*conn, error)
	put(*conn)
	close()
}

// member is what the router keeps per backend: its transport pool and the
// histogram its attempts are timed into, resolved once instead of by name on
// every attempt.
type member struct {
	backendPool
	latency *obs.Histogram
}

// connPool keeps idle protocol connections to one backend. A cloud.Client
// is single-stream (one request/response in flight), so the pool hands out
// exclusive ownership: get removes a connection, put returns it. Broken
// connections (transport error, cancellation mid-exchange) are closed
// instead of pooled, and dialing happens on demand — after a backend dies,
// the pool holds nothing and every attempt fails fast at dial time.
type connPool struct {
	dial func() (*cloud.Client, error)

	mu     sync.Mutex
	idle   []*conn
	max    int // idle cap; extra returns are closed
	closed bool
}

func newConnPool(max int, dial func() (*cloud.Client, error)) *connPool {
	if max <= 0 {
		max = 4
	}
	return &connPool{dial: dial, max: max}
}

// get returns an idle connection or dials a new one; a closed pool refuses,
// so a request that fetched the pool just before its node was retired does
// not re-dial a drained backend.
func (p *connPool) get() (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	cl, err := p.dial()
	if err != nil {
		return nil, err
	}
	return &conn{transport: cl}, nil
}

// put returns a connection to the pool; broken connections and overflow
// beyond the idle cap are closed.
func (p *connPool) put(c *conn) {
	if c == nil {
		return
	}
	if c.Broken() {
		c.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.max {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// close drops every idle connection and refuses future returns.
func (p *connPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// errPoolClosed is returned by a pool after close.
var errPoolClosed = errors.New("cluster: connection pool closed")

// muxPool is the multiplexed counterpart: ONE shared cloud.MuxClient per
// backend carries every concurrent attempt (it is concurrent-safe and
// window-bounded), so N in-flight requests cost one socket instead of N.
// get hands the shared client to any number of callers; put is a no-op —
// a broken client is detected and replaced on the next get, when no
// exchange can be mid-flight on a fresh dial.
type muxPool struct {
	dial func() (*cloud.MuxClient, error)

	mu     sync.Mutex
	cur    *conn
	closed bool
}

func newMuxPool(dial func() (*cloud.MuxClient, error)) *muxPool {
	return &muxPool{dial: dial}
}

// get returns the backend's shared multiplexed connection, dialing (or
// replacing a broken one) on demand.
func (p *muxPool) get() (*conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errPoolClosed
	}
	if p.cur != nil && !p.cur.Broken() {
		return p.cur, nil
	}
	if p.cur != nil {
		p.cur.Close()
		p.cur = nil
	}
	mc, err := p.dial()
	if err != nil {
		return nil, err
	}
	p.cur = &conn{transport: mc}
	return p.cur, nil
}

// put is a no-op: the client is shared, and concurrent exchanges may still
// be in flight on it.
func (p *muxPool) put(*conn) {}

// close tears down the shared connection.
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
