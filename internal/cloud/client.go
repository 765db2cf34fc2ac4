package cloud

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/program"
)

// DialTimeout bounds connection establishment in Dial/DialTenant.
const DialTimeout = 5 * time.Second

// Exchanger is the two-method surface every transport offers: the
// sequential Client, the multiplexed MuxClient, and the cluster router.
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

// caller is what both client connections have above their Exchange: the
// codec their own requests are encoded under (EnableCKKS), the typed
// operations, and the calls that are one round trip each.
type caller struct {
	codec
	Ops      // the typed operations of both schemes; Ops.Tenant is the connection's namespace
	exchange func(context.Context, *Frame) (*RawReply, error)
}

// roundTrip is encode, exchange, materialize — the skeleton every command
// shares — under the connection's tenant unless the request names one.
func (cl *caller) roundTrip(ctx context.Context, req *Request) (Reply, error) {
	if req.Tenant == "" {
		req.Tenant = cl.Ops.Tenant
	}
	return cl.codec.roundTrip(ctx, cl.exchange, req)
}

// Tenant returns the namespace this connection issues requests under.
func (cl *caller) Tenant() string { return cl.Ops.Tenant }

// Do runs one operation exchange under ctx (see the connection's Exchange
// for the deadline and cancellation rules). A server-reported failure is
// returned as *ServerError.
func (cl *caller) Do(ctx context.Context, req *Request) (*Response, error) {
	return ReplyAs[*Response](cl.roundTrip(ctx, req))
}

// DoProgram runs one CmdProgram exchange: the raw request (ProgBytes and
// Inputs populated) against the program reply framing.
func (cl *caller) DoProgram(ctx context.Context, req *Request) (*ProgramResponse, error) {
	req.Cmd = CmdProgram
	return ReplyAs[*ProgramResponse](cl.roundTrip(ctx, req))
}

// PingCtx verifies the service is alive, honoring ctx. The reply's
// ciphertext is framed and checked like any other but never materialized: a
// health probe costs no ciphertext.
func (cl *caller) PingCtx(ctx context.Context) error {
	raw, err := cl.codec.send(ctx, cl.exchange, &Request{Cmd: CmdPing, Tenant: cl.Ops.Tenant})
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
func (cl *caller) Info(ctx context.Context) (*ServerInfo, error) {
	return ReplyAs[*ServerInfo](cl.roundTrip(ctx, &Request{Cmd: CmdInfo}))
}

// Client is a connection to the cloud service. It is not safe for
// concurrent use; open one client per goroutine (the server multiplexes).
type Client struct {
	caller
	conn   net.Conn
	nextID uint64
	broken bool // a transport error or cancellation desynced the stream
	// interrupt slams the connection deadline to now; armed on each
	// exchange's context, so a cancellation cuts blocked I/O short.
	interrupt func()
}

// Dial connects to the service under the default tenant.
func Dial(addr string, params *fv.Params) (*Client, error) {
	return DialTenant(addr, params, "")
}

// DialTenant connects to the service; every request is issued under the
// given evaluation-key namespace.
func DialTenant(addr string, params *fv.Params, tenant string) (*Client, error) {
	if len(tenant) > MaxTenantLen {
		return nil, fmt.Errorf("cloud: tenant %q longer than %d bytes", tenant, MaxTenantLen)
	}
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn}
	c.caller = caller{codec: newCodec(params, nil), Ops: Ops{Via: c, Tenant: tenant}, exchange: c.Exchange}
	c.interrupt = func() { conn.SetDeadline(time.Now()) }
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether the connection's request/response stream can no
// longer be trusted (a transport error, a cancellation mid-exchange, or a
// response-ID mismatch). A broken client must be closed, not reused.
func (c *Client) Broken() bool { return c.broken }

// Exchange runs one raw exchange under ctx: it sends f's bytes under this
// connection's next request ID — one contiguous Write, nothing else about
// the frame touched, so the routing tier forwards a client's frame through
// here as is — and frames the reply, validated in place, for the caller to
// relay or materialize and then release. A context deadline is honored via
// the connection deadline, so a hung server cannot block the caller past it;
// a cancellation slams that deadline to now (the per-exchange reset clears
// whatever a late-firing one leaves behind). On cancellation, any transport
// error, a malformed reply, or a reply to a different request the client is
// marked Broken; an error reply — the server answered, the operation failed —
// leaves the stream usable. The reply is framed under the frame's codec, so a
// frame whose codec cannot frame it (a CKKS command without a CKKS layout) is
// refused, ErrMalformedRequest, before the write.
func (c *Client) Exchange(ctx context.Context, f *Frame) (*RawReply, error) {
	if c.broken {
		return nil, fmt.Errorf("cloud: client connection is broken")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := f.codec.layout(f.Cmd); err != nil {
		return nil, err
	}
	c.nextID++
	f.stamp(c.nextID)
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	defer context.AfterFunc(ctx, c.interrupt)()

	if _, err := c.conn.Write(f.b); err != nil {
		c.broken = true
		return nil, c.ctxErr(ctx, err)
	}
	raw, err := readRawReply(c.conn, f.replyHint(), f.codec, f.Cmd)
	if err != nil {
		c.broken = true
		return nil, c.ctxErr(ctx, err)
	}
	if id := raw.ID(); id != c.nextID {
		c.broken = true
		raw.Release()
		return nil, fmt.Errorf("cloud: %s reply ID %d for request %d (stream desync)", cmdName(f.Cmd), id, c.nextID)
	}
	return raw, nil
}

// ctxErr prefers the context's error over the I/O error it provoked, so
// callers see context.DeadlineExceeded instead of a bare network timeout.
// The connection deadline is set to the context deadline, so the two timers
// race by a few microseconds: a network timeout at or past the context
// deadline is the context expiring even when ctx.Err() has not flipped yet.
func (c *Client) ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("cloud: %w (%v)", cerr, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return fmt.Errorf("cloud: %w (%v)", context.DeadlineExceeded, err)
		}
	}
	return err
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
