package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

type testSystem struct {
	params *fv.Params
	sk     *fv.SecretKey
	pk     *fv.PublicKey
	rk     *fv.RelinKey
	eng    *engine.Engine
}

func newTestSystem(t testing.TB) *testSystem {
	t.Helper()
	params, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(99)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	eng, err := engine.New(engine.Config{Params: params, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine shutdown: %v", err)
		}
	})
	eng.SetRelinKey(DefaultTenant, rk)
	return &testSystem{params: params, sk: sk, pk: pk, rk: rk, eng: eng}
}

func (ts *testSystem) encrypt(t testing.TB, v uint64) *fv.Ciphertext {
	t.Helper()
	prng := sampler.NewPRNG(v * 7)
	enc := fv.NewEncryptor(ts.params, ts.pk, prng)
	pt := fv.NewPlaintext(ts.params)
	pt.Coeffs[0] = v % 257
	return enc.Encrypt(pt)
}

func (ts *testSystem) decrypt(ct *fv.Ciphertext) uint64 {
	return fv.NewDecryptor(ts.params, ts.sk).Decrypt(ct).Coeffs[0]
}

func startServer(t *testing.T, ts *testSystem) (*Server, string) {
	t.Helper()
	srv := NewServer(ts.params, ts.eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("server exited with %v", err)
		}
	})
	return srv, addr
}

func TestRequestResponseRoundTrip(t *testing.T) {
	ts := newTestSystem(t)
	a := ts.encrypt(t, 5)
	b := ts.encrypt(t, 6)

	var buf bytes.Buffer
	if err := WriteRequest(&buf, ts.params, &Request{Cmd: CmdMul, A: a, B: b}); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(&buf, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	if req.Cmd != CmdMul || !req.A.Equal(a) || !req.B.Equal(b) {
		t.Fatal("request round trip failed")
	}

	buf.Reset()
	resp := &Response{Result: a, ComputeNanos: 12345, Worker: 1}
	if err := WriteResponse(&buf, ts.params, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponseV(&buf, ts.params, ProtoV2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(a) || got.ComputeNanos != 12345 || got.Worker != 1 {
		t.Fatal("response round trip failed")
	}

	// Error responses round trip too.
	buf.Reset()
	if err := WriteResponse(&buf, ts.params, &Response{Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadResponseV(&buf, ts.params, ProtoV2); err != nil || got.Err != "boom" {
		t.Fatalf("error response round trip: %v %v", got, err)
	}
}

// requestHeader is the wire header of a request for cmd with ID 0 under the
// default tenant: magic, version, command, request ID, empty tenant.
func requestHeader(cmd uint8) []byte {
	return append([]byte{'H', 'E', 'A', '2', ProtoV2, cmd}, make([]byte, 8+1)...)
}

func TestRequestValidation(t *testing.T) {
	ts := newTestSystem(t)
	// Wrong magic — garbage, and the retired v1 framing ("HEAT" + command),
	// which is now a bad magic like any other.
	for _, frame := range []string{"XXXX\x01", "HEAT\x03"} {
		_, err := ReadRequest(bytes.NewReader([]byte(frame)), ts.params)
		if !errors.Is(err, ErrMalformedRequest) {
			t.Fatalf("magic %q: err = %v, want ErrMalformedRequest", frame[:4], err)
		}
	}
	// Every command byte against the command table. A row has a unique name;
	// an info or blob row bounds its reply body; an op row's engine kind is
	// served, and its request frames back with that kind's operands under
	// that kind's scheme. A byte with no row is refused by the framer and by
	// the encoder.
	cparams, cct := fuzzCKKS()
	cd := codecFor(ts.params, cparams)
	ct := ts.encrypt(t, 1)
	names := map[string]int{}
	for b := 0; b < 256; b++ {
		cmd := uint8(b)
		row := commands[cmd]
		if row == nil {
			_, err := ReadRequest(bytes.NewReader(requestHeader(cmd)), ts.params)
			if !errors.Is(err, ErrMalformedRequest) || !strings.Contains(err.Error(), fmt.Sprintf("unknown command %d", b)) {
				t.Errorf("byte %d has no row but frames as %v", b, err)
			}
			if _, err := cd.encode(&Request{Cmd: cmd, A: ct, B: ct}); !errors.Is(err, ErrMalformedRequest) {
				t.Errorf("byte %d has no row but encodes: %v", b, err)
			}
			continue
		}
		name := cmdName(cmd)
		if prev, dup := names[name]; dup || name == "" {
			t.Errorf("bytes %d and %d share the name %q", prev, b, name)
		}
		names[name] = b
		if (row.reply == ReplyInfo || row.reply == ReplyBlob) && row.bound(cd) <= 0 {
			t.Errorf("%s: reply bound %d", name, row.bound(cd))
		}
		if row.body != bodyOp {
			continue
		}
		if name == fmt.Sprintf("op(%d)", row.op) {
			t.Errorf("byte %d: engine kind %d is not served", b, row.op)
			continue
		}
		f, err := cd.encode(&Request{Cmd: cmd, G: 3, R: 1, A: ct, B: ct, CA: cct, CB: cct})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Frame
		if err := back.read(&cursor{buf: bytes.Clone(f.b), left: cd.maxRequest}, cd); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		req, err := back.Request()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mine, other := []bool{req.A != nil, req.B != nil}, []bool{req.CA != nil, req.CB != nil}
		size := fvSize(ts.params, ct)
		if row.op.CKKS() {
			mine, other, size = other, mine, ckksSize(cct)
		}
		want := []bool{true, row.op.Operands() == 2}
		if !slices.Equal(mine, want) || slices.Contains(other, true) {
			t.Errorf("%s: operands %v of its scheme and %v of the other, want %v", name, mine, other, want)
		}
		arg := 0
		if row.arg != argNone {
			arg = 4
		}
		if len(f.b) != back.body+arg+row.op.Operands()*size {
			t.Errorf("%s: %d-byte frame, want %d operands of %d bytes after the header", name, len(f.b), row.op.Operands(), size)
		}
		f.Release()
	}
	// Truncated body.
	truncated := append(requestHeader(CmdAdd), 1, 2, 3)
	if _, err := ReadRequest(bytes.NewReader(truncated), ts.params); err == nil {
		t.Fatal("truncated request accepted")
	}
}

func TestServerEndToEnd(t *testing.T) {
	ts := newTestSystem(t)
	srv, addr := startServer(t, ts)

	client, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}

	a := ts.encrypt(t, 9)
	b := ts.encrypt(t, 13)

	sum, _, err := client.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.decrypt(sum); got != 22 {
		t.Fatalf("9+13 = %d over the wire", got)
	}

	prod, hwTime, err := client.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.decrypt(prod); got != 117 {
		t.Fatalf("9·13 = %d over the wire", got)
	}
	if hwTime <= 0 {
		t.Fatal("server did not report simulated hardware time")
	}
	// Ping is not a homomorphic operation; only Add and Mul count.
	if srv.Served() != 2 {
		t.Fatalf("server served %d ops, want 2", srv.Served())
	}
}

func TestServerConcurrentClients(t *testing.T) {
	ts := newTestSystem(t)
	_, addr := startServer(t, ts)

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, ts.params)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			a := ts.encrypt(t, uint64(i+2))
			b := ts.encrypt(t, uint64(i+3))
			prod, _, err := c.Mul(a, b)
			if err != nil {
				errs[i] = err
				return
			}
			want := uint64((i + 2) * (i + 3) % 257)
			if got := ts.decrypt(prod); got != want {
				errs[i] = errResult{got, want}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

type errResult struct{ got, want uint64 }

func (e errResult) Error() string {
	return "wrong result"
}

func TestServerRotate(t *testing.T) {
	ts := newTestSystem(t)
	srv, addr := startServer(t, ts)

	// Install a Galois key server-side (as a client would upload it).
	prngK := sampler.NewPRNG(99)
	kg := fv.NewKeyGenerator(ts.params, prngK)
	// Re-derive the same secret the test system holds by regenerating with
	// the same seed: GenKeys consumed the stream in the same order.
	sk2, _, _ := kg.GenKeys()
	if !sk2.S.Equal(ts.sk.S) {
		t.Fatal("deterministic key regeneration out of sync")
	}
	const g = 3
	gk := kg.GenGaloisKey(sk2, g)
	srv.SetGaloisKey(gk)

	client, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	pt := fv.NewPlaintext(ts.params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(2*i + 1)
	}
	prng := sampler.NewPRNG(7)
	enc := fv.NewEncryptor(ts.params, ts.pk, prng)
	ct := enc.Encrypt(pt)

	rotated, hwTime, err := client.Rotate(ct, g)
	if err != nil {
		t.Fatal(err)
	}
	if hwTime <= 0 {
		t.Fatal("no simulated time reported")
	}
	want := fv.ApplyAutomorphismPlain(ts.params, g, pt)
	got := fv.NewDecryptor(ts.params, ts.sk).Decrypt(rotated)
	if !got.Equal(want) {
		t.Fatal("cloud rotation decrypts wrong")
	}

	// Rotating with an uninstalled element must fail cleanly.
	if _, _, err := client.Rotate(ct, 5); err == nil {
		t.Fatal("rotation with missing key should error")
	}
	// So must element 0, which the wire carries unchecked: the tenant's
	// relinearization key is registered, and it is not a Galois key.
	if _, _, err := client.Rotate(ct, 0); err == nil {
		t.Fatal("rotation by element 0 should error")
	}
	// The connection must survive the error responses.
	if err := client.Ping(); err != nil {
		t.Fatalf("connection broken after error response: %v", err)
	}
}

// TestServerGracefulShutdown: Shutdown must return within its context even
// while a client connection is still open and idle — the old server waited
// for clients to hang up on their own.
func TestServerGracefulShutdown(t *testing.T) {
	ts := newTestSystem(t)
	srv := NewServer(ts.params, ts.eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	client, err := Dial(addr, ts.params)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Complete one real operation so a handler is mid-loop, then leave the
	// connection open and idle.
	a, b := ts.encrypt(t, 3), ts.encrypt(t, 4)
	if _, _, err := client.Add(a, b); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown did not drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if got := srv.Served(); got != 1 {
		t.Fatalf("served %d ops through shutdown, want 1", got)
	}
}

// TestServerSlowClientDisconnected: a client that opens a connection and
// stalls mid-request must be cut off by the per-read deadline instead of
// pinning a handler goroutine forever.
func TestServerSlowClientDisconnected(t *testing.T) {
	ts := newTestSystem(t)
	srv := NewServer(ts.params, ts.eng, nil)
	srv.ReadTimeout = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A session, then half a frame header, then silence.
	if err := WriteMuxHello(conn, 1); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadMuxHello(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{MuxFrameRequest, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("server replied to half a frame")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the stalled connection")
	}
}

// TestRequestSizeBounded: ReadRequest must never consume more than the
// request bound of its parameter set from the stream, whatever the stream
// claims. The bound admits a key blob: the tighter bound of one op request
// went with the stream cursor. On the wire the bound is the mux frame's — its
// length word is checked before a payload byte is read, and what the reader
// reserves grows only with what has arrived (TestMuxFrameReservesOnlyWhatArrived).
func TestRequestSizeBounded(t *testing.T) {
	ts := newTestSystem(t)
	limit := codecFor(ts.params, nil).maxRequest
	// A well-formed-looking prefix followed by an endless stream of zeros:
	// the reader must give up with an error after at most `limit` bytes.
	var prefix bytes.Buffer
	prefix.Write(requestHeader(CmdAdd))
	var hdr [8]byte
	hdr[0] = 3 // element count (max allowed)
	n := uint32(ts.params.N())
	hdr[4], hdr[5], hdr[6], hdr[7] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	prefix.Write(hdr[:])
	cr := &countingReader{r: io.MultiReader(&prefix, zeros{})}
	if _, err := ReadRequest(cr, ts.params); err == nil {
		t.Fatal("bottomless request accepted")
	}
	if cr.n > limit {
		t.Fatalf("ReadRequest consumed %d bytes, bound is %d", cr.n, limit)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
