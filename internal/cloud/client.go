package cloud

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/program"
)

// DialTimeout bounds connection establishment and the hello in Dial,
// DialTenant and DialContext; DialContext's context can only shorten it.
const DialTimeout = 5 * time.Second

// Exchanger is the two-method surface both transports offer: the Client
// session and the cluster router.
type Exchanger interface {
	Do(ctx context.Context, req *Request) (*Response, error)
	DoProgram(ctx context.Context, req *Request) (*ProgramResponse, error)
}

// Ops are the typed operations, written once over an Exchanger. Requests go
// out under Tenant; "" leaves the transport's own default in place.
type Ops struct {
	Via    Exchanger
	Tenant string
}

func (o Ops) op(ctx context.Context, req *Request) (*fv.Ciphertext, time.Duration, error) {
	resp, err := o.do(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	return resp.Result, time.Duration(resp.ComputeNanos), nil
}

func (o Ops) ckksOp(ctx context.Context, req *Request) (*ckks.Ciphertext, time.Duration, error) {
	resp, err := o.do(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	return resp.CKKSResult, time.Duration(resp.ComputeNanos), nil
}

func (o Ops) do(ctx context.Context, req *Request) (*Response, error) {
	req.Tenant = o.Tenant
	return o.Via.Do(ctx, req)
}

// AddCtx asks the cloud to add two ciphertexts, honoring ctx.
func (o Ops) AddCtx(ctx context.Context, a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	return o.op(ctx, &Request{Cmd: CmdAdd, A: a, B: b})
}

// MulCtx asks the cloud to multiply two ciphertexts (relinearized
// server-side), honoring ctx.
func (o Ops) MulCtx(ctx context.Context, a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	return o.op(ctx, &Request{Cmd: CmdMul, A: a, B: b})
}

// RotateCtx asks the cloud to apply the Galois automorphism g (the server
// must hold the matching key), honoring ctx.
func (o Ops) RotateCtx(ctx context.Context, a *fv.Ciphertext, g int) (*fv.Ciphertext, time.Duration, error) {
	return o.op(ctx, &Request{Cmd: CmdRotate, G: uint32(g), A: a})
}

// CKKSAddCtx asks the cloud to add two approximate-arithmetic ciphertexts
// (levels aligned server-side), honoring ctx. A connection needs EnableCKKS.
func (o Ops) CKKSAddCtx(ctx context.Context, a, b *ckks.Ciphertext) (*ckks.Ciphertext, time.Duration, error) {
	return o.ckksOp(ctx, &Request{Cmd: CmdCKKSAdd, CA: a, CB: b})
}

// CKKSMulCtx asks the cloud to multiply two approximate-arithmetic
// ciphertexts — relinearized and rescaled server-side, so the result sits one
// level below the deeper operand. A connection needs EnableCKKS.
func (o Ops) CKKSMulCtx(ctx context.Context, a, b *ckks.Ciphertext) (*ckks.Ciphertext, time.Duration, error) {
	return o.ckksOp(ctx, &Request{Cmd: CmdCKKSMul, CA: a, CB: b})
}

// CKKSRotateCtx asks the cloud to rotate the slot vector left by r (the
// server must hold the matching Galois key), honoring ctx. A connection needs
// EnableCKKS.
func (o Ops) CKKSRotateCtx(ctx context.Context, a *ckks.Ciphertext, r int) (*ckks.Ciphertext, time.Duration, error) {
	return o.ckksOp(ctx, &Request{Cmd: CmdCKKSRotate, CA: a, R: int32(r)})
}

// RunProgram compiles nothing — it serializes an already-built program and
// submits it with its inputs as ONE round trip, returning every output. This
// is the client half of circuit-as-a-program serving: where op-at-a-time
// evaluation pays a round trip per gate, a program pays one per circuit.
func (o Ops) RunProgram(ctx context.Context, p *program.Program, inputs []*fv.Ciphertext) (*ProgramResponse, error) {
	data, err := p.EncodeBytes()
	if err != nil {
		return nil, err
	}
	return o.Via.DoProgram(ctx, &Request{Tenant: o.Tenant, ProgBytes: data, Inputs: inputs})
}

// ReplyAs narrows a round trip's outcome to the reply kind its command
// answers in; a server-reported failure becomes the call's error.
func ReplyAs[T Reply](rep Reply, err error) (T, error) {
	var zero T
	if err != nil {
		return zero, err
	}
	if se, ok := rep.(*ServerError); ok {
		return zero, se
	}
	return rep.(T), nil // RawReply.Reply picked the kind from the same command
}

// Client is a session with the cloud service: one connection, safe for
// concurrent use, carrying up to the negotiated window of requests at once —
// each a checksummed mux frame — completing out of order as the server's
// workers finish. A submission past the window fails fast with
// ErrWindowExhausted.
//
// Cancellation is cheap: an exchange abandoned while it waits for its reply
// only deregisters its ID — the late reply is discarded by the reader — so a
// context deadline leaves the session usable. One abandoned in the middle of
// its frame write (a peer that stopped reading) breaks the session instead.
type Client struct {
	codec // what this session's own requests are encoded under (EnableCKKS)
	Ops   // the typed operations of both schemes; Ops.Tenant is the session's namespace

	conn   net.Conn
	window int

	sem chan struct{} // in-flight window slots

	wslot chan struct{} // one slot, held by the frame write in progress

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan muxResult
	err     error // first connection-fatal error; set once, sticky
	// limit bounds a reply payload: the largest mux payload of any codec a
	// frame has gone out under, so a forwarded frame's reply fits.
	limit int

	readerDone chan struct{}
}

// muxResult is what the reader delivers to a waiting submitter: the reply
// frame's payload and checksum, unframed, in the pooled buffer it was read into.
type muxResult struct {
	buf *buffer
	sum uint32
	err error
}

// Dial connects to the service under the default tenant.
func Dial(addr string, params *fv.Params) (*Client, error) {
	return DialTenant(addr, params, "")
}

// DialTenant connects to the service; every request is issued under the
// given evaluation-key namespace.
func DialTenant(addr string, params *fv.Params, tenant string) (*Client, error) {
	return DialContext(context.Background(), addr, params, tenant, DefaultMuxWindow)
}

// DialContext connects and negotiates a session under ctx, asking for the
// given window (the server may grant less): the connect and the hello both
// end when ctx does, and after DialTimeout in any case.
func DialContext(ctx context.Context, addr string, params *fv.Params, tenant string, window int) (*Client, error) {
	if len(tenant) > MaxTenantLen {
		return nil, fmt.Errorf("cloud: tenant %q longer than %d bytes", tenant, MaxTenantLen)
	}
	ctx, cancel := context.WithTimeout(ctx, DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := newClient(ctx, conn, params, tenant, window)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// newClient performs the hello exchange over an established connection and
// starts the reader. The hello's I/O ends when ctx does. On success it owns
// conn.
func newClient(ctx context.Context, conn net.Conn, params *fv.Params, tenant string, window int) (*Client, error) {
	if window < 1 {
		window = DefaultMuxWindow
	}
	deadline, _ := ctx.Deadline()
	conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	granted, err := hello(conn, window)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("%w (%v)", cerr, err)
		}
		return nil, fmt.Errorf("cloud: mux hello: %w", err)
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		codec:      newCodec(params, nil),
		conn:       conn,
		window:     granted,
		sem:        make(chan struct{}, granted),
		wslot:      make(chan struct{}, 1),
		pending:    make(map[uint64]chan muxResult),
		readerDone: make(chan struct{}),
	}
	c.Ops = Ops{Via: c, Tenant: tenant}
	c.limit = c.codec.maxMuxPayload
	go c.readLoop()
	return c, nil
}

// hello asks for window and returns what the server granted.
func hello(conn net.Conn, window int) (int, error) {
	if err := WriteMuxHello(conn, window); err != nil {
		return 0, err
	}
	granted, err := ReadMuxHello(conn)
	return min(granted, window), err
}

// Window returns the negotiated in-flight request window.
func (c *Client) Window() int { return c.window }

// Close tears the connection down; in-flight exchanges fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// Broken reports whether the connection is dead (a transport error, a
// malformed frame, or Close). A broken Client fails every submission.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// fail marks the connection broken and delivers err to every pending
// exchange.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	stranded := c.pending
	c.pending = make(map[uint64]chan muxResult)
	c.mu.Unlock()
	for _, ch := range stranded {
		ch <- muxResult{err: err}
	}
}

// readLoop is the single reader: it only moves frames — each payload into a
// pooled buffer, each buffer to whichever pending exchange owns the request
// ID, in whatever order the server finished them. Framing and validating a
// ciphertext-sized reply is the waiter's work, on the waiter's goroutine.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	limit := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.limit
	}
	for {
		f, buf, err := readMuxFrame(c.conn, limit, true)
		if err != nil && !errors.Is(err, ErrMuxPayloadChecksum) {
			c.fail(fmt.Errorf("cloud: mux connection lost: %w", err))
			return
		}
		ch, ok := c.take(f.ID)
		switch {
		case !ok: // canceled exchange; drop the late response
			buf.release()
		case err != nil:
			// The frame boundary is intact: fail only the request the
			// corrupted payload belonged to and keep reading.
			buf.release()
			ch <- muxResult{err: err}
		default:
			ch <- muxResult{buf: buf, sum: f.sum}
		}
	}
}

// take removes and returns the pending entry for id.
func (c *Client) take(id uint64) (chan muxResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	return ch, ok
}

// Exchange runs one raw exchange under ctx: it sends f's bytes as one frame
// under the session's next request ID and f's checksum — nothing about the
// frame touched, so the routing tier forwards a client's frame through here
// as is — and waits for the reply frame, then frames that payload, which
// must be one whole reply, by shape, for the caller to check and relay, or to
// materialize (either reads the residues), and then release. It
// implements the window: a full window fails immediately with
// ErrWindowExhausted rather than queueing. The write is synchronous, so
// nothing references f once Exchange returns, however it returns. The reply
// is framed under the frame's codec, so a frame that codec cannot frame (a
// CKKS command without a CKKS layout) is refused, ErrMalformedRequest, before
// the write.
func (c *Client) Exchange(ctx context.Context, f *Frame) (*RawReply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := f.codec.layout(f.Cmd); err != nil {
		return nil, err
	}
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	select {
	case c.sem <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w (window %d)", ErrWindowExhausted, c.window)
	}
	defer func() { <-c.sem }()

	ch := make(chan muxResult, 1)
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.limit = max(c.limit, f.codec.maxMuxPayload)
	c.mu.Unlock()

	if err := c.write(ctx, id, f.b, f.sum); err != nil {
		c.take(id)
		return nil, err
	}

	var res muxResult
	select {
	case res = <-ch:
	case <-ctx.Done():
		// Abandon the exchange: deregister so the reader discards the late
		// reply (one it has already handed over is simply dropped with ch).
		// The connection itself stays healthy.
		c.take(id)
		return nil, ctx.Err()
	}
	if res.err != nil {
		return nil, res.err
	}
	raw := &RawReply{id: id, sum: res.sum, buf: res.buf}
	err = raw.read(&cursor{buf: res.buf.b, left: math.MaxInt}, f.codec, f.Cmd)
	if extra := len(res.buf.b) - len(raw.b); err == nil && extra != 0 {
		err = fmt.Errorf("%w: %d bytes after the reply", ErrMalformedResponse, extra)
	}
	if err != nil {
		raw.Release()
		return nil, err
	}
	return raw, nil
}

// write sends one request frame under ctx, which bounds both the wait for
// the write slot and the write itself (its deadline, and a cancellation
// cutting the write short), so a peer that stops reading costs each caller
// its own deadline. A write that fails may have left part of a frame on the
// wire, so it breaks the session.
func (c *Client) write(ctx context.Context, id uint64, payload []byte, sum uint32) error {
	select {
	case c.wslot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.wslot }()
	if err := ctx.Err(); err != nil { // nothing written: the session stays
		return err
	}
	deadline, _ := ctx.Deadline()
	c.conn.SetWriteDeadline(deadline)
	cut := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetWriteDeadline(time.Now())
		close(cut)
	})
	err := writeMuxFrame(c.conn, MuxFrameRequest, id, payload, sum)
	if !stop() {
		<-cut // the cut lands before the next writer sets its own deadline
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("%w (%v)", cerr, err)
		}
		err = fmt.Errorf("cloud: mux write: %w", err)
		c.fail(err)
	}
	return err
}

// roundTrip is encode, exchange, materialize — the skeleton every command
// shares — under the session's tenant unless the request names one.
func (c *Client) roundTrip(ctx context.Context, req *Request) (Reply, error) {
	if req.Tenant == "" {
		req.Tenant = c.Ops.Tenant
	}
	return c.codec.roundTrip(ctx, c.Exchange, req)
}

// Do runs one operation exchange under ctx. A server-reported failure is
// returned as *ServerError.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	return ReplyAs[*Response](c.roundTrip(ctx, req))
}

// DoProgram runs one CmdProgram exchange: the raw request (ProgBytes and
// Inputs populated) against the program reply framing.
func (c *Client) DoProgram(ctx context.Context, req *Request) (*ProgramResponse, error) {
	req.Cmd = CmdProgram
	return ReplyAs[*ProgramResponse](c.roundTrip(ctx, req))
}

// PingCtx verifies the service is alive, honoring ctx. The reply's
// ciphertext is framed by shape and discarded, never checked or
// materialized: a health probe reads no residue and costs no ciphertext.
func (c *Client) PingCtx(ctx context.Context) error {
	raw, err := c.codec.send(ctx, c.Exchange, &Request{Cmd: CmdPing, Tenant: c.Ops.Tenant})
	if err != nil {
		return err
	}
	defer raw.Release()
	if se := raw.ServerError(); se != nil {
		return se
	}
	return nil
}

// Info asks the server what it is: protocol version, node ID, worker count,
// whether it serves CKKS, and the tenants with registered evaluation keys.
func (c *Client) Info(ctx context.Context) (*ServerInfo, error) {
	return ReplyAs[*ServerInfo](c.roundTrip(ctx, &Request{Cmd: CmdInfo}))
}

// Add asks the cloud to add two ciphertexts.
func (c *Client) Add(a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	return c.AddCtx(context.Background(), a, b)
}

// Mul asks the cloud to multiply two ciphertexts (relinearized server-side).
func (c *Client) Mul(a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	return c.MulCtx(context.Background(), a, b)
}

// Rotate asks the cloud to apply the Galois automorphism g (the server must
// hold the matching key).
func (c *Client) Rotate(a *fv.Ciphertext, g int) (*fv.Ciphertext, time.Duration, error) {
	return c.RotateCtx(context.Background(), a, g)
}

// CKKSAdd asks the cloud to add two approximate-arithmetic ciphertexts.
func (c *Client) CKKSAdd(a, b *ckks.Ciphertext) (*ckks.Ciphertext, time.Duration, error) {
	return c.CKKSAddCtx(context.Background(), a, b)
}

// CKKSMul asks the cloud to multiply two approximate-arithmetic ciphertexts
// (relinearized and rescaled server-side).
func (c *Client) CKKSMul(a, b *ckks.Ciphertext) (*ckks.Ciphertext, time.Duration, error) {
	return c.CKKSMulCtx(context.Background(), a, b)
}

// CKKSRotate asks the cloud to rotate the slot vector left by r.
func (c *Client) CKKSRotate(a *ckks.Ciphertext, r int) (*ckks.Ciphertext, time.Duration, error) {
	return c.CKKSRotateCtx(context.Background(), a, r)
}

// Ping verifies the service is alive.
func (c *Client) Ping() error {
	return c.PingCtx(context.Background())
}
