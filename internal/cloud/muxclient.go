package cloud

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/fv"
)

// muxResult is what the reader delivers to a waiting submitter: the reply
// frame's payload, still unframed, in the pooled buffer it was read into.
type muxResult struct {
	buf *buffer
	err error
}

// MuxClient is a multiplexed connection to the cloud service: unlike Client,
// it is safe for concurrent use, and up to the negotiated window of requests
// can be in flight at once, completing out of order as the server's workers
// finish. Submissions past the window fail fast with ErrWindowExhausted.
//
// Cancellation is cheap: an abandoned exchange only deregisters its ID — the
// late response is discarded by the reader — so a context deadline does not
// poison the connection the way it breaks a sequential Client.
type MuxClient struct {
	caller
	conn   net.Conn
	window int

	sem chan struct{} // in-flight window slots

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan muxResult
	err     error // first connection-fatal error; set once, sticky
	// limit bounds a reply payload: the largest mux payload of any codec a
	// frame has gone out under, so a forwarded frame's reply fits.
	limit int

	readerDone chan struct{}
}

// DialMux connects to the service, negotiates a multiplexed session under
// the default tenant, and starts the reader.
func DialMux(addr string, params *fv.Params) (*MuxClient, error) {
	return DialMuxTenant(addr, params, "")
}

// DialMuxTenant is DialMux under the given evaluation-key namespace.
func DialMuxTenant(addr string, params *fv.Params, tenant string) (*MuxClient, error) {
	if len(tenant) > MaxTenantLen {
		return nil, fmt.Errorf("cloud: tenant %q longer than %d bytes", tenant, MaxTenantLen)
	}
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	mc, err := NewMuxClient(conn, params, tenant, DefaultMuxWindow)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return mc, nil
}

// NewMuxClient performs the hello exchange over an established connection
// (asking for the given window; the server may grant less) and starts the
// reader goroutine. On success it owns conn.
func NewMuxClient(conn net.Conn, params *fv.Params, tenant string, window int) (*MuxClient, error) {
	if window < 1 {
		window = DefaultMuxWindow
	}
	conn.SetDeadline(time.Now().Add(DialTimeout))
	if err := WriteMuxHello(conn, window); err != nil {
		return nil, fmt.Errorf("cloud: mux hello: %w", err)
	}
	granted, err := ReadMuxHello(conn)
	if err != nil {
		return nil, fmt.Errorf("cloud: mux hello: %w", err)
	}
	if granted > window {
		granted = window
	}
	conn.SetDeadline(time.Time{})
	mc := &MuxClient{
		conn:       conn,
		window:     granted,
		sem:        make(chan struct{}, granted),
		pending:    make(map[uint64]chan muxResult),
		readerDone: make(chan struct{}),
	}
	mc.caller = caller{codec: newCodec(params, nil), Ops: Ops{Via: mc, Tenant: tenant}, exchange: mc.Exchange}
	mc.limit = mc.codec.maxMuxPayload
	go mc.readLoop()
	return mc, nil
}

// Window returns the negotiated in-flight request window.
func (mc *MuxClient) Window() int { return mc.window }

// Close tears the connection down; in-flight exchanges fail.
func (mc *MuxClient) Close() error {
	err := mc.conn.Close()
	<-mc.readerDone
	return err
}

// Broken reports whether the connection is dead (a transport error, a
// malformed frame, or Close). A broken MuxClient fails every submission.
func (mc *MuxClient) Broken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err != nil
}

// fail marks the connection broken and delivers err to every pending
// exchange.
func (mc *MuxClient) fail(err error) {
	mc.mu.Lock()
	if mc.err == nil {
		mc.err = err
	}
	stranded := mc.pending
	mc.pending = make(map[uint64]chan muxResult)
	mc.mu.Unlock()
	for _, ch := range stranded {
		ch <- muxResult{err: err}
	}
}

// readLoop is the single reader: it only moves frames — each payload into a
// pooled buffer, each buffer to whichever pending exchange owns the request
// ID, in whatever order the server finished them. Framing and validating a
// ciphertext-sized reply is the waiter's work, on the waiter's goroutine.
func (mc *MuxClient) readLoop() {
	defer close(mc.readerDone)
	limit := func() int {
		mc.mu.Lock()
		defer mc.mu.Unlock()
		return mc.limit
	}
	for {
		f, buf, err := readMuxFrame(mc.conn, limit, true)
		if err != nil && !errors.Is(err, ErrMuxPayloadChecksum) {
			mc.fail(fmt.Errorf("cloud: mux connection lost: %w", err))
			return
		}
		ch, ok := mc.take(f.ID)
		switch {
		case !ok: // canceled exchange; drop the late response
			buf.release()
		case err != nil:
			// The frame boundary is intact: fail only the request the
			// corrupted payload belonged to and keep reading.
			buf.release()
			ch <- muxResult{err: err}
		default:
			ch <- muxResult{buf: buf}
		}
	}
}

// take removes and returns the pending entry for id.
func (mc *MuxClient) take(id uint64) (chan muxResult, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	ch, ok := mc.pending[id]
	if ok {
		delete(mc.pending, id)
	}
	return ch, ok
}

// Exchange is Client.Exchange over the shared session: it sends f's bytes as
// one frame under the session's next request ID and waits for the reply
// frame under ctx, then frames and validates that payload in place. It
// implements the window: a full window fails immediately with
// ErrWindowExhausted rather than queueing. The write is synchronous, so
// nothing references f once Exchange returns, however it returns. The reply
// is framed under the frame's codec; a frame that codec cannot frame is
// refused before the write, as by Client.Exchange.
func (mc *MuxClient) Exchange(ctx context.Context, f *Frame) (*RawReply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := f.codec.layout(f.Cmd); err != nil {
		return nil, err
	}
	mc.mu.Lock()
	err := mc.err
	mc.mu.Unlock()
	if err != nil {
		return nil, err
	}

	select {
	case mc.sem <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w (window %d)", ErrWindowExhausted, mc.window)
	}
	defer func() { <-mc.sem }()

	ch := make(chan muxResult, 1)
	mc.mu.Lock()
	mc.nextID++
	id := mc.nextID
	mc.pending[id] = ch
	mc.limit = max(mc.limit, f.codec.maxMuxPayload)
	mc.mu.Unlock()

	f.stamp(id)
	mc.wmu.Lock()
	err = WriteMuxFrame(mc.conn, MuxFrameRequest, id, f.b)
	mc.wmu.Unlock()
	if err != nil {
		mc.take(id)
		mc.fail(fmt.Errorf("cloud: mux write: %w", err))
		return nil, err
	}

	var res muxResult
	select {
	case res = <-ch:
	case <-ctx.Done():
		// Abandon the exchange: deregister so the reader discards the late
		// reply (one it has already handed over is simply dropped with ch).
		// The connection itself stays healthy.
		mc.take(id)
		return nil, ctx.Err()
	}
	if res.err != nil {
		return nil, res.err
	}
	// The payload is a complete reply in the sequential framing.
	raw := &RawReply{buf: res.buf}
	err = raw.read(&cursor{buf: res.buf.b, left: math.MaxInt}, f.codec, f.Cmd)
	if err == nil && raw.ID() != id {
		err = fmt.Errorf("%w: inner reply ID %d under frame ID %d", ErrMalformedResponse, raw.ID(), id)
	}
	if err != nil {
		raw.Release()
		return nil, err
	}
	return raw, nil
}
