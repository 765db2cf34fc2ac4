package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fv"
)

// muxResult is what the reader delivers to a waiting submitter.
type muxResult struct {
	rep Reply
	err error
}

// muxPending is one in-flight exchange: the command whose reply framing the
// reader decodes with, and where to deliver it.
type muxPending struct {
	cmd uint8
	ch  chan muxResult
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
	Ops    // AddCtx, MulCtx, RotateCtx, PingCtx, RunProgram; Ops.Tenant is the client's namespace
	conn   net.Conn
	params *fv.Params
	window int

	sem chan struct{} // in-flight window slots

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]muxPending
	err     error // first connection-fatal error; set once, sticky

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
		params:     params,
		window:     granted,
		sem:        make(chan struct{}, granted),
		pending:    make(map[uint64]muxPending),
		readerDone: make(chan struct{}),
	}
	mc.Ops = Ops{Via: mc, Tenant: tenant}
	go mc.readLoop()
	return mc, nil
}

// Window returns the negotiated in-flight request window.
func (mc *MuxClient) Window() int { return mc.window }

// Tenant returns the namespace this client issues requests under.
func (mc *MuxClient) Tenant() string { return mc.Ops.Tenant }

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
	mc.pending = make(map[uint64]muxPending)
	mc.mu.Unlock()
	for _, p := range stranded {
		p.ch <- muxResult{err: err}
	}
}

// readLoop is the single reader: it decodes frames and dispatches them to
// whichever pending exchange owns the request ID, in whatever order the
// server finished them.
func (mc *MuxClient) readLoop() {
	defer close(mc.readerDone)
	maxPayload := maxMuxPayload(mc.params)
	for {
		f, err := DecodeMuxFrame(mc.conn, maxPayload)
		if errors.Is(err, ErrMuxPayloadChecksum) {
			// The frame boundary is intact: fail only the request the
			// corrupted payload belonged to and keep reading.
			if p, ok := mc.take(f.ID); ok {
				p.ch <- muxResult{err: err}
			}
			continue
		}
		if err != nil {
			mc.fail(fmt.Errorf("cloud: mux connection lost: %w", err))
			return
		}
		p, ok := mc.take(f.ID)
		if !ok {
			continue // canceled exchange; drop the late response
		}
		// The payload is a complete reply in the sequential framing.
		id, rep, err := readReply(bytes.NewReader(f.Payload), mc.params, nil, p.cmd)
		if err == nil && id != f.ID {
			err = fmt.Errorf("%w: inner reply ID %d under frame ID %d", ErrMalformedResponse, id, f.ID)
		}
		p.ch <- muxResult{rep: rep, err: err}
	}
}

// take removes and returns the pending entry for id.
func (mc *MuxClient) take(id uint64) (muxPending, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	p, ok := mc.pending[id]
	if ok {
		delete(mc.pending, id)
	}
	return p, ok
}

// roundTrip encodes req as a v2 payload, frames it, and waits for its reply
// under ctx. It implements the window: a full window fails immediately with
// ErrWindowExhausted rather than queueing.
func (mc *MuxClient) roundTrip(ctx context.Context, req *Request) (Reply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
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

	req.Ver = ProtoV2
	if req.Tenant == "" {
		req.Tenant = mc.Ops.Tenant
	}
	p := muxPending{cmd: req.Cmd, ch: make(chan muxResult, 1)}
	mc.mu.Lock()
	mc.nextID++
	req.ID = mc.nextID
	mc.pending[req.ID] = p
	mc.mu.Unlock()

	var buf bytes.Buffer
	buf.Grow(req.encodedSize(mc.params))
	if err := WriteRequest(&buf, mc.params, req); err != nil {
		mc.take(req.ID)
		return nil, err
	}
	mc.wmu.Lock()
	err = WriteMuxFrame(mc.conn, MuxFrameRequest, req.ID, buf.Bytes())
	mc.wmu.Unlock()
	if err != nil {
		mc.take(req.ID)
		mc.fail(fmt.Errorf("cloud: mux write: %w", err))
		return nil, err
	}

	select {
	case res := <-p.ch:
		return res.rep, res.err
	case <-ctx.Done():
		// Abandon the exchange: deregister so the reader discards the late
		// reply. The connection itself stays healthy.
		mc.take(req.ID)
		return nil, ctx.Err()
	}
}

// Do runs one operation exchange. A server-reported failure is returned as
// *ServerError, matching Client.Do. CKKS commands are refused: a mux client
// holds no CKKS parameter set to decode their results with.
func (mc *MuxClient) Do(ctx context.Context, req *Request) (*Response, error) {
	if isCKKSCmd(req.Cmd) {
		return nil, fmt.Errorf("cloud: %s is not carried over a mux client", cmdName(req.Cmd))
	}
	return replyAs[*Response](mc.roundTrip(ctx, req))
}

// Info asks the server what it is.
func (mc *MuxClient) Info(ctx context.Context) (*ServerInfo, error) {
	return replyAs[*ServerInfo](mc.roundTrip(ctx, &Request{Cmd: CmdInfo}))
}

// DoProgram runs one CmdProgram exchange.
func (mc *MuxClient) DoProgram(ctx context.Context, req *Request) (*ProgramResponse, error) {
	req.Cmd = CmdProgram
	return replyAs[*ProgramResponse](mc.roundTrip(ctx, req))
}
