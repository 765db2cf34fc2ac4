package cloud

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
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
	mc, err := Dial(addr, ts.params)
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

// TestPooledCKKSOperandsOwnedByTheFrame: a CKKS operand materialized from a
// frame is drawn from the front-end's pool and goes back with the frame, and
// under PoisonReleased a use of it after that fails a range check; the next
// frame — its operands at another level — decodes into what the pool returns
// and keeps nothing of the poison.
func TestPooledCKKSOperandsOwnedByTheFrame(t *testing.T) {
	ts := newCKKSTestSystem(t)
	fe := NewFrontend(ts.params, nil, nil)
	fe.CKKSParams = ts.cp
	top := ts.encryptVals(t, []float64{0.5, -0.25})
	low := ckks.NewEvaluator(ts.cp).DropLevel(top, 1)

	materialize := func(f *Frame, req *Request) *Request {
		t.Helper()
		var enc bytes.Buffer
		if err := WriteRequest(&enc, ts.params, req); err != nil {
			t.Fatal(err)
		}
		if err := f.read(&cursor{buf: enc.Bytes(), left: enc.Len()}, codecFor(ts.params, ts.cp)); err != nil {
			t.Fatal(err)
		}
		got, err := f.Request()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	f := &Frame{pool: &fe.cts}
	req := materialize(f, &Request{Cmd: CmdCKKSMul, ID: 1, CA: top, CB: top})
	if !req.CA.Equal(top) || !req.CB.Equal(top) || req.CA == req.CB {
		t.Fatal("materialized operands differ from the encoded ones")
	}
	stale := req.CA
	f.Release()
	enc, err := stale.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.cp.Wire().Check(enc); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("an operand used after its frame was released passed as %v, want a range-check failure", err)
	}

	f = &Frame{pool: &fe.cts}
	req = materialize(f, &Request{Cmd: CmdCKKSRotate, ID: 2, R: 1, CA: low})
	if !req.CA.Equal(low) || req.R != 1 {
		t.Fatal("an operand decoded into a recycled ciphertext differs from the encoded one")
	}
	f.Release()
}

// TestCKKSServingRecyclesOperands: rounds of CKKS traffic on one connection,
// operands arriving at three different levels, through a server whose pool
// poisons everything it takes back — every result still decrypts to the
// right slots, so no operand is read after its release and no recycled one
// keeps a row of its past.
func TestCKKSServingRecyclesOperands(t *testing.T) {
	ts := newCKKSTestSystem(t)
	_, addr := startCKKSServer(t, ts)
	cl, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.EnableCKKS(ts.cp)

	n := ts.cp.Slots()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%9)/10.0 - 0.4
	}
	ctX := ts.encryptVals(t, xs)
	check := func(name string, ct *ckks.Ciphertext, want func(i int) float64) {
		t.Helper()
		got := ts.decode(ct)
		for i := 0; i < n; i++ {
			if d := math.Abs(got[i] - want(i)); d > 1e-3 {
				t.Fatalf("%s slot %d: got %g want %g", name, i, got[i], want(i))
			}
		}
	}
	for round := 0; round < 3; round++ {
		sq, _, err := cl.CKKSMul(ctX, ctX) // operands at the top
		if err != nil {
			t.Fatal(err)
		}
		check("square", sq, func(i int) float64 { return xs[i] * xs[i] })
		cube, _, err := cl.CKKSMul(sq, ctX) // one level down, and the top
		if err != nil {
			t.Fatal(err)
		}
		check("cube", cube, func(i int) float64 { return xs[i] * xs[i] * xs[i] })
		rot, _, err := cl.CKKSRotate(cube, 1) // two levels down
		if err != nil {
			t.Fatal(err)
		}
		check("rotated cube", rot, func(i int) float64 { j := (i + 1) % n; return xs[j] * xs[j] * xs[j] })
		sum, _, err := cl.CKKSAdd(rot, rot)
		if err != nil {
			t.Fatal(err)
		}
		check("sum", sum, func(i int) float64 { j := (i + 1) % n; return 2 * xs[j] * xs[j] * xs[j] })
	}
}

// capture is a handler that keeps every op result the node hands its
// front-end, so a test can look at them after their frames were released.
type capture struct {
	Handler
	mu   sync.Mutex
	fv   []*fv.Ciphertext
	ckks []*ckks.Ciphertext
}

func (c *capture) Handle(f *Frame) Reply {
	rep := c.Handler.Handle(f)
	if resp, ok := rep.(*Response); ok {
		c.mu.Lock()
		if resp.CKKSResult != nil {
			c.ckks = append(c.ckks, resp.CKKSResult)
		} else {
			c.fv = append(c.fv, resp.Result)
		}
		c.mu.Unlock()
	}
	return rep
}

// TestPooledResultsOwnedByTheFrame: every op result a data node replies with
// is read back into a ciphertext drawn from its front-end's pool, and goes
// back with the frame once the reply has been written. Rounds of BFV
// Add/Mul/Rotate and CKKS Add/MulRescale/Rotate — CKKS operands at three
// levels, mixed within an op — share one mux session with many exchanges in
// flight. Every reply is bit for bit the engine's own freshly allocated
// result, so no result was released before its reply went out and no
// recycled one kept a row of what it held before; and every result, looked
// at once the session has drained, fails a range check.
func TestPooledResultsOwnedByTheFrame(t *testing.T) {
	ts := newCKKSTestSystem(t)
	const g = 3
	ts.eng.SetGaloisKey(DefaultTenant, fv.NewKeyGenerator(ts.params, sampler.NewPRNG(5)).GenGaloisKey(ts.sk, g))
	a, b := ts.encrypt(t, 5), ts.encrypt(t, 6)
	x := ts.encryptVals(t, []float64{0.5, -0.25, 0.125})
	ev := ckks.NewEvaluator(ts.cp)
	x1, x2 := ev.DropLevel(x, x.Level()-1), ev.DropLevel(x, x.Level()-2)
	ops := []engine.Op{
		{Kind: engine.OpAdd, A: a, B: b},
		{Kind: engine.OpMul, A: a, B: b},
		{Kind: engine.OpRotate, A: a, G: g},
		{Kind: engine.OpCKKSAdd, CA: x, CB: x1},
		{Kind: engine.OpCKKSAdd, CA: x2, CB: x2},
		{Kind: engine.OpCKKSMul, CA: x, CB: x},
		{Kind: engine.OpCKKSMul, CA: x1, CB: x2},
		{Kind: engine.OpCKKSRotate, CA: x, R: 1},
		{Kind: engine.OpCKKSRotate, CA: x2, R: 1},
	}
	ctx := context.Background()
	want := make([]*engine.Result, len(ops))
	for i, op := range ops {
		var err error
		if want[i], err = ts.eng.Submit(ctx, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	c := &capture{Handler: NewServer(ts.params, ts.eng, nil)}
	fe := NewFrontend(ts.params, c, nil)
	fe.CKKSParams = ts.cp
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fe.Serve() }()
	mc, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	mc.EnableCKKS(ts.cp)
	const rounds = 3 // every exchange in flight at once fits the window
	if rounds*len(ops) > mc.Window() {
		t.Fatalf("%d exchanges overrun the mux window of %d", rounds*len(ops), mc.Window())
	}
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i, op := range ops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var (
					ok  bool
					err error
				)
				switch op.Kind {
				case engine.OpAdd, engine.OpMul, engine.OpRotate:
					var ct *fv.Ciphertext
					switch op.Kind {
					case engine.OpAdd:
						ct, _, err = mc.AddCtx(ctx, op.A, op.B)
					case engine.OpMul:
						ct, _, err = mc.MulCtx(ctx, op.A, op.B)
					default:
						ct, _, err = mc.RotateCtx(ctx, op.A, op.G)
					}
					ok = err == nil && ct.Equal(want[i].Ct)
				default:
					var ct *ckks.Ciphertext
					switch op.Kind {
					case engine.OpCKKSAdd:
						ct, _, err = mc.CKKSAddCtx(ctx, op.CA, op.CB)
					case engine.OpCKKSMul:
						ct, _, err = mc.CKKSMulCtx(ctx, op.CA, op.CB)
					default:
						ct, _, err = mc.CKKSRotateCtx(ctx, op.CA, op.R)
					}
					ok = err == nil && ct.Equal(want[i].CCt)
				}
				if !ok {
					t.Errorf("round %d, op %d (%v): err %v, or the reply is not the engine's result", round, i, op.Kind, err)
				}
			}()
		}
	}
	wg.Wait()
	mc.Close()
	fe.Close() // returns once every frame has been released
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if len(c.fv) != rounds*3 || len(c.ckks) != rounds*6 {
		t.Fatalf("captured %d BFV and %d CKKS results, want %d and %d", len(c.fv), len(c.ckks), rounds*3, rounds*6)
	}
	rangeFails := func(enc []byte, err error, check func([]byte) (int, error)) bool {
		if err != nil {
			t.Fatal(err)
		}
		_, err = check(enc)
		return err != nil && strings.Contains(err.Error(), "out of range")
	}
	for i, ct := range c.fv {
		enc, err := ct.AppendTo(nil, ts.params)
		if !rangeFails(enc, err, ts.params.Wire().Check) {
			t.Fatalf("BFV result %d used after its frame was released passed a range check", i)
		}
	}
	for i, ct := range c.ckks {
		enc, err := ct.AppendTo(nil)
		if !rangeFails(enc, err, ts.cp.Wire().Check) {
			t.Fatalf("CKKS result %d used after its frame was released passed a range check", i)
		}
	}
}

// TestRecycledCKKSResultKeepsNoStaleRows: a destination that last held one
// tenant's level-L result, reused for another tenant's level-(L−2) result,
// puts exactly L−1 rows on the wire — the rows its capacity still holds from
// level L stay behind — and the reply decodes to the engine's own freshly
// allocated result bit for bit.
func TestRecycledCKKSResultKeepsNoStaleRows(t *testing.T) {
	ts := newCKKSTestSystem(t)
	x := ts.encryptVals(t, []float64{0.5, -0.25, 0.125})
	L := x.Level()
	low := ckks.NewEvaluator(ts.cp).DropLevel(x, L-2)
	add := func(tenant string, a, dst *ckks.Ciphertext) *ckks.Ciphertext {
		t.Helper()
		res, err := ts.eng.Submit(context.Background(), engine.Op{
			Kind: engine.OpCKKSAdd, Tenant: tenant, CA: a, CB: a, CDst: dst,
		})
		if err != nil {
			t.Fatal(err)
		}
		if dst != nil && res.CCt != dst {
			t.Fatal("the result is not in the op's destination")
		}
		return res.CCt
	}
	dst := new(ckks.Ciphertext)
	if add("alice", x, dst).Level() != L {
		t.Fatalf("first result at level %d, want %d", dst.Level(), L)
	}
	add("bob", low, dst)
	want := add("bob", low, nil)
	if rows := len(dst.Els[0].Rows); rows != L-1 || cap(dst.Els[0].Rows) < L+1 {
		t.Fatalf("recycled destination holds %d rows (capacity %d), want %d within a capacity of %d",
			rows, cap(dst.Els[0].Rows), L-1, L+1)
	}

	buf, err := (&Response{CKKSResult: dst}).encode(ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.release()
	n := ts.cp.N()
	if size := replyHeadLen + 12 + 24 + 2*(L-1)*n*4; len(buf.b) != size {
		t.Fatalf("reply is %d bytes, want %d: two elements of %d rows", len(buf.b), size, L-1)
	}
	raw := new(RawReply)
	if err := raw.read(&cursor{buf: buf.b, left: len(buf.b)}, codecFor(ts.params, ts.cp), CmdCKKSAdd); err != nil {
		t.Fatal(err)
	}
	rep, err := raw.Reply()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.(*Response).CKKSResult; !got.Equal(want) {
		t.Fatal("the reply from a recycled destination is not the engine's result")
	}
}

// relay is the routing tier in miniature: a front-end handler that
// range-checks each frame and forwards its bytes over one backend session,
// then checks the reply it gets and relays it, never materializing either —
// cluster.Server's forwarding without the ring.
type relay struct{ via *Client }

func (r *relay) Handle(f *Frame) Reply {
	if err := f.Check(); err != nil {
		return &ServerError{Code: CodeApp, Msg: err.Error()}
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
	return raw
}

// TestRelayedCKKSFramesReleasedOnEveryPath: CKKS frames framed by a
// forwarding front-end own their pooled bytes until the relayed reply is
// written, and give them back on every path — a result, a node's error reply
// relayed as is, and the relay's own refusal of an out-of-range operand,
// which its front-end framed and its range check refused.
// With the pools poisoning what they take back, rounds of each leave every
// answer bit for bit the node's.
func TestRelayedCKKSFramesReleasedOnEveryPath(t *testing.T) {
	ts := newCKKSTestSystem(t)
	_, node := startCKKSServer(t, ts)
	direct, err := Dial(node, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	direct.EnableCKKS(ts.cp)
	x := ts.encryptVals(t, []float64{0.5, -0.25, 0.125})
	bad := x.Clone()
	row := bad.Els[1].Rows[len(bad.Els[1].Rows)-1]
	row.Coeffs[len(row.Coeffs)-1] = row.Mod.Q
	ctx := context.Background()
	results := func(c *Client) []*ckks.Ciphertext {
		t.Helper()
		sum, _, err := c.CKKSAddCtx(ctx, x, x)
		if err != nil {
			t.Fatal(err)
		}
		prod, _, err := c.CKKSMulCtx(ctx, x, sum)
		if err != nil {
			t.Fatal(err)
		}
		rot, _, err := c.CKKSRotateCtx(ctx, prod, 1)
		if err != nil {
			t.Fatal(err)
		}
		return []*ckks.Ciphertext{sum, prod, rot}
	}
	want := results(direct)

	backend, err := Dial(node, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	fe := NewFrontend(ts.params, &relay{via: backend}, nil)
	fe.CKKSParams = ts.cp
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
	cl.EnableCKKS(ts.cp)
	for round := 0; round < 3; round++ {
		for i, got := range results(cl) {
			if !got.Equal(want[i]) {
				t.Fatalf("round %d: result %d is not the node's", round, i)
			}
		}
		// No key for a shift of 3: the node's error reply, relayed.
		var se *ServerError
		if _, _, err := cl.CKKSRotateCtx(ctx, x, 3); !errors.As(err, &se) || se.Code != CodeApp {
			t.Fatalf("round %d: rotation without a key: %v", round, err)
		}
		// The relay's refusal: the session answers it and goes on.
		if _, _, err := cl.CKKSAddCtx(ctx, x, bad); !errors.As(err, &se) || !strings.Contains(se.Msg, ErrMalformedRequest.Error()) {
			t.Fatalf("round %d: out-of-range operand: %v", round, err)
		}
	}
}
