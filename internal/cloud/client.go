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

// Client is a connection to the cloud service. It is not safe for
// concurrent use; open one client per goroutine (the server multiplexes).
type Client struct {
	conn   net.Conn
	params *fv.Params
	ckks   *ckks.Params // non-nil after EnableCKKS; required for CmdCKKS*
	tenant string
	nextID uint64
	broken bool // a transport error or cancellation desynced the stream
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
	return &Client{conn: conn, params: params, tenant: tenant}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Tenant returns the namespace this client issues requests under.
func (c *Client) Tenant() string { return c.tenant }

// SetTenant changes the namespace for subsequent requests. Connection pools
// use this to reuse one connection across tenants.
func (c *Client) SetTenant(tenant string) error {
	if len(tenant) > MaxTenantLen {
		return fmt.Errorf("cloud: tenant %q longer than %d bytes", tenant, MaxTenantLen)
	}
	c.tenant = tenant
	return nil
}

// Broken reports whether the connection's request/response stream can no
// longer be trusted (a transport error, a cancellation mid-exchange, or a
// response-ID mismatch). A broken client must be closed, not reused.
func (c *Client) Broken() bool { return c.broken }

// EnableCKKS arms the client for approximate-arithmetic commands. The params
// must match the server's (check ServerInfo.CKKS via Info first); CKKS
// commands on a client without them fail before touching the wire.
func (c *Client) EnableCKKS(p *ckks.Params) { c.ckks = p }

// watch arranges for ctx cancellation to interrupt conn I/O by slamming the
// deadline to now. The returned stop function must be called when the
// exchange ends; the per-exchange deadline reset in exchange clears any
// deadline a late-firing watcher leaves behind.
func (c *Client) watch(ctx context.Context) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.conn.SetDeadline(time.Now())
		case <-done:
		}
	}()
	return func() { close(done) }
}

// exchange runs one request/response round trip under ctx — the skeleton
// every command shares. It stamps the request's Ver, ID, and Tenant from the
// client (a non-empty req.Tenant overrides the client default), writes it,
// and calls read to decode the reply off c.conn; read returns the request ID
// the reply echoed. A context deadline is honored via the connection
// deadline, so a hung server cannot block the caller past it. On
// cancellation, any transport error, or a reply to a different request the
// client is marked Broken; a *ServerError from read — the server answered,
// the operation failed — is returned as is and leaves the stream usable.
// what names the reply kind in the desync error.
func (c *Client) exchange(ctx context.Context, req *Request, what string, read func() (uint64, error)) error {
	if c.broken {
		return fmt.Errorf("cloud: client connection is broken")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	req.Ver = ProtoV2
	if req.Tenant == "" {
		req.Tenant = c.tenant
	}
	c.nextID++
	req.ID = c.nextID
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	stop := c.watch(ctx)
	defer stop()

	if err := WriteRequest(c.conn, c.params, req); err != nil {
		c.broken = true
		return c.ctxErr(ctx, err)
	}
	id, err := read()
	var se *ServerError
	if err != nil && !errors.As(err, &se) {
		c.broken = true
		return c.ctxErr(ctx, err)
	}
	if id != req.ID {
		c.broken = true
		return fmt.Errorf("cloud: %sresponse ID %d for request %d (stream desync)", what, id, req.ID)
	}
	return err
}

// Do runs one request/response exchange under ctx (see exchange for the
// deadline, cancellation, and broken-stream rules). A server-reported
// failure is returned as *ServerError with the result response.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	if isCKKSCmd(req.Cmd) && c.ckks == nil {
		return nil, fmt.Errorf("cloud: %s requires EnableCKKS", cmdName(req.Cmd))
	}
	var resp *Response
	if err := c.exchange(ctx, req, "", func() (id uint64, err error) {
		if isCKKSCmd(req.Cmd) {
			resp, err = ReadCKKSResponseV(c.conn, c.ckks, req.Ver)
		} else {
			resp, err = ReadResponseV(c.conn, c.params, req.Ver)
		}
		if err != nil {
			return 0, err
		}
		return resp.ID, nil
	}); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, &ServerError{Code: resp.Code, Msg: resp.Err}
	}
	return resp, nil
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

// AddCtx asks the cloud to add two ciphertexts, honoring ctx.
func (c *Client) AddCtx(ctx context.Context, a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	resp, err := c.Do(ctx, &Request{Cmd: CmdAdd, A: a, B: b})
	if err != nil {
		return nil, 0, err
	}
	return resp.Result, time.Duration(resp.ComputeNanos), nil
}

// MulCtx asks the cloud to multiply two ciphertexts (relinearized
// server-side), honoring ctx.
func (c *Client) MulCtx(ctx context.Context, a, b *fv.Ciphertext) (*fv.Ciphertext, time.Duration, error) {
	resp, err := c.Do(ctx, &Request{Cmd: CmdMul, A: a, B: b})
	if err != nil {
		return nil, 0, err
	}
	return resp.Result, time.Duration(resp.ComputeNanos), nil
}

// RotateCtx asks the cloud to apply the Galois automorphism g (the server
// must hold the matching key), honoring ctx.
func (c *Client) RotateCtx(ctx context.Context, a *fv.Ciphertext, g int) (*fv.Ciphertext, time.Duration, error) {
	resp, err := c.Do(ctx, &Request{Cmd: CmdRotate, G: uint32(g), A: a})
	if err != nil {
		return nil, 0, err
	}
	return resp.Result, time.Duration(resp.ComputeNanos), nil
}

// CKKSAddCtx asks the cloud to add two approximate-arithmetic ciphertexts
// (levels aligned server-side), honoring ctx. Requires EnableCKKS.
func (c *Client) CKKSAddCtx(ctx context.Context, a, b *ckks.Ciphertext) (*ckks.Ciphertext, time.Duration, error) {
	resp, err := c.Do(ctx, &Request{Cmd: CmdCKKSAdd, CA: a, CB: b})
	if err != nil {
		return nil, 0, err
	}
	return resp.CKKSResult, time.Duration(resp.ComputeNanos), nil
}

// CKKSMulCtx asks the cloud to multiply two approximate-arithmetic
// ciphertexts — relinearized and rescaled server-side, so the result sits one
// level below the deeper operand. Requires EnableCKKS.
func (c *Client) CKKSMulCtx(ctx context.Context, a, b *ckks.Ciphertext) (*ckks.Ciphertext, time.Duration, error) {
	resp, err := c.Do(ctx, &Request{Cmd: CmdCKKSMul, CA: a, CB: b})
	if err != nil {
		return nil, 0, err
	}
	return resp.CKKSResult, time.Duration(resp.ComputeNanos), nil
}

// CKKSRotateCtx asks the cloud to rotate the slot vector left by r (the
// server must hold the matching Galois key), honoring ctx. Requires
// EnableCKKS.
func (c *Client) CKKSRotateCtx(ctx context.Context, a *ckks.Ciphertext, r int) (*ckks.Ciphertext, time.Duration, error) {
	resp, err := c.Do(ctx, &Request{Cmd: CmdCKKSRotate, CA: a, R: int32(r)})
	if err != nil {
		return nil, 0, err
	}
	return resp.CKKSResult, time.Duration(resp.ComputeNanos), nil
}

// PingCtx verifies the service is alive, honoring ctx.
func (c *Client) PingCtx(ctx context.Context) error {
	_, err := c.Do(ctx, &Request{Cmd: CmdPing})
	return err
}

// Info asks the server what it is: protocol version, node ID, worker count,
// and the tenants with registered evaluation keys.
func (c *Client) Info(ctx context.Context) (*ServerInfo, error) {
	var info *ServerInfo
	err := c.exchange(ctx, &Request{Cmd: CmdInfo}, "info ", func() (id uint64, err error) {
		id, info, err = ReadInfoResponse(c.conn)
		return id, err
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// DoProgram runs one CmdProgram exchange: the raw request (ProgBytes and
// Inputs populated) against the program response framing. Deadline,
// cancellation, and broken-stream handling match Do. A server-reported
// failure returns the response alongside a *ServerError carrying its code.
func (c *Client) DoProgram(ctx context.Context, req *Request) (*ProgramResponse, error) {
	req.Cmd = CmdProgram
	var resp *ProgramResponse
	if err := c.exchange(ctx, req, "program ", func() (id uint64, err error) {
		if resp, err = ReadProgramResponse(c.conn, c.params); err != nil {
			return 0, err
		}
		return resp.ID, nil
	}); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return resp, &ServerError{Code: resp.Code, Msg: resp.Err}
	}
	return resp, nil
}

// RunProgram compiles nothing — it serializes an already-built program and
// submits it with its inputs as ONE round trip, returning every output. This
// is the client half of circuit-as-a-program serving: where op-at-a-time
// evaluation pays a round trip per gate, a program pays one per circuit.
func (c *Client) RunProgram(ctx context.Context, p *program.Program, inputs []*fv.Ciphertext) (*ProgramResponse, error) {
	data, err := p.EncodeBytes()
	if err != nil {
		return nil, err
	}
	return c.DoProgram(ctx, &Request{ProgBytes: data, Inputs: inputs})
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
