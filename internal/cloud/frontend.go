package cloud

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/ckks"
	"repro/internal/fv"
)

// DefaultReadTimeout bounds how long a front-end waits for one complete
// request (idle time between requests included) and for one reply to drain
// into the socket. A client that stalls mid-message or stops reading its
// replies — accidentally or as a slow-loris — is disconnected instead of
// pinning a handler goroutine (and the buffers of the reply it is stuck on)
// forever.
const DefaultReadTimeout = 2 * time.Minute

// Handler answers one framed request. The front-end calls it on one
// goroutine per in-flight frame of every session, so it must be safe for
// concurrent use. The frame is framed by shape: its residues are the
// handler's to check (Frame.Check) or decode (Frame.Request). The frame, and
// whatever the handler materialized from it, stays valid until the front-end
// has encoded the reply — which goes out under the ID the request arrived
// with — and is released by the front-end right after, before the reply's
// bytes are written; the handler keeps nothing of it.
type Handler interface {
	Handle(f *Frame) Reply
}

// Frontend is the wire front door (the "Networking Arm Core" of Fig. 11):
// the listener, the accept loop, graceful drain, and the one framing — the
// checksummed HEAM mux session — in front of a Handler. The data node
// (Server, engine behind it) and the routing tier (cluster.Server, router
// behind it) are two handlers on this one type.
type Frontend struct {
	Params *fv.Params
	// CKKSParams, when non-nil, lets the CmdCKKS* commands through (their
	// ciphertext bodies cannot be framed without it). Set before Serve.
	CKKSParams *ckks.Params
	Logger     *log.Logger
	// ReadTimeout overrides DefaultReadTimeout when positive.
	ReadTimeout time.Duration

	handler Handler
	codec   codec  // Params and CKKSParams as the wire reads them, set by Serve
	cts     ctPool // operand ciphertexts materialized from this front-end's frames
	ln      net.Listener
	mu      sync.Mutex
	closing bool
	conns   map[net.Conn]struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
}

// NewFrontend prepares a front-end that hands every request to h. A nil
// logger discards.
func NewFrontend(params *fv.Params, h Handler, logger *log.Logger) *Frontend {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Frontend{
		Params:  params,
		Logger:  logger,
		handler: h,
		conns:   make(map[net.Conn]struct{}),
		quit:    make(chan struct{}),
	}
}

// Listen binds the address and returns the bound address (useful with
// ":0").
func (fe *Frontend) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	fe.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until Close/Shutdown. Each connection gets a
// reader goroutine and one goroutine per request in its window; bounding the
// work behind them is the handler's business (the engine's admission queue
// rejects instead of piling up).
func (fe *Frontend) Serve() error {
	if fe.ln == nil {
		return fmt.Errorf("cloud: Serve before Listen")
	}
	fe.codec = newCodec(fe.Params, fe.CKKSParams)
	for {
		conn, err := fe.ln.Accept()
		if err != nil {
			fe.mu.Lock()
			closing := fe.closing
			fe.mu.Unlock()
			if closing {
				fe.wg.Wait()
				return nil
			}
			return err
		}
		fe.mu.Lock()
		if fe.closing {
			fe.mu.Unlock()
			conn.Close()
			continue
		}
		fe.conns[conn] = struct{}{}
		fe.wg.Add(1)
		fe.mu.Unlock()
		go func() {
			defer fe.wg.Done()
			fe.handle(conn)
		}()
	}
}

// Shutdown gracefully drains the front-end: it stops accepting, lets every
// in-flight request finish and its reply flush, and unblocks idle connection
// readers. It returns nil once all connection handlers have exited, or
// ctx.Err() if the context expires first. What sits behind the handler (an
// engine, a router) belongs to the caller and is left running.
func (fe *Frontend) Shutdown(ctx context.Context) error {
	fe.mu.Lock()
	already := fe.closing
	fe.closing = true
	if !already {
		close(fe.quit)
		// Unblock readers parked on the socket. One that is busy finishes its
		// request and writes the reply first; it observes quit on its next
		// loop.
		for c := range fe.conns {
			c.SetReadDeadline(time.Now())
		}
	}
	ln := fe.ln
	fe.mu.Unlock()
	if ln != nil && !already {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		fe.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting and drains in-flight connections with a 5-second
// grace period.
func (fe *Frontend) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return fe.Shutdown(ctx)
}

// nextRequest arms the read deadline for one more request and reports
// whether the front-end is still serving. Deadline first, then the quit
// check: if Shutdown runs between the two, its SetReadDeadline(now) lands
// after ours and still wins.
func (fe *Frontend) nextRequest(conn net.Conn, timeout time.Duration) bool {
	conn.SetReadDeadline(time.Now().Add(timeout))
	select {
	case <-fe.quit:
		return false
	default:
		return true
	}
}

// handle runs one session. A connection that does not open with a mux hello
// is closed before anything reaches the handler. After the hello, frames are
// read sequentially but dispatched concurrently: up to the granted window of
// requests are with the handler at once, and each reply frame goes out as
// its work finishes — completion order, not arrival order. When every window
// slot is occupied the reader itself blocks, so a client that overruns its
// window is paced by the transport rather than fanning one socket into
// unbounded work.
func (fe *Frontend) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		fe.mu.Lock()
		delete(fe.conns, conn)
		fe.mu.Unlock()
	}()
	timeout := fe.ReadTimeout
	if timeout <= 0 {
		timeout = DefaultReadTimeout
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(timeout))
	window, err := ReadMuxHello(br)
	if err != nil {
		return // no session: a hangup, a stall, or anything but the hello
	}
	window = min(window, MaxMuxWindow)
	if err := WriteMuxHello(conn, window); err != nil {
		return
	}

	var wmu sync.Mutex // serializes reply frames across dispatch goroutines
	// reply frames rep as the answer to request id, each frame's write bounded
	// by the front-end's timeout, and releases the request's frame f, if any,
	// once rep is encoded: the encoding holds everything the reply needs of
	// it. An encode or write failure fails the session; the read loop sees
	// the close.
	reply := func(id uint64, rep Reply, f *Frame) {
		buf, err := rep.encode(fe.Params)
		if f != nil {
			f.Release()
		}
		if err == nil {
			sum := replySum(rep, buf.b)
			wmu.Lock()
			conn.SetWriteDeadline(time.Now().Add(timeout))
			err = writeMuxFrame(conn, MuxFrameResponse, id, buf.b, sum)
			wmu.Unlock()
			buf.release()
		}
		if err != nil {
			fe.Logger.Printf("cloud: mux reply: %v", err)
			conn.Close()
		}
	}

	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	defer wg.Wait() // flush in-flight dispatches before the conn closes
	maxPayload := func() int { return fe.codec.maxMuxPayload }

	for fe.nextRequest(conn, timeout) {
		// Up to a window of requests are in flight at once, so each frame's
		// payload lands in a pooled buffer that its Frame then owns.
		mf, buf, err := readMuxFrame(br, maxPayload, true)
		if errors.Is(err, ErrMuxPayloadChecksum) {
			// The frame boundary held: fail exactly this request, retryably
			// (the payload was never decoded, so nothing executed), and keep
			// serving the session.
			buf.release()
			reply(mf.ID, &ServerError{Code: CodeUnavailable, Msg: err.Error()}, nil)
			continue
		}
		if err != nil {
			return // clean close, stall past the deadline, or stream garbage
		}
		if mf.Type != MuxFrameRequest {
			buf.release()
			fe.Logger.Printf("cloud: mux client sent frame type %d", mf.Type)
			return
		}
		f := &Frame{ID: mf.ID, sum: mf.sum, buf: buf, pool: &fe.cts}
		err = f.read(&cursor{buf: mf.Payload, left: fe.codec.maxRequest}, &fe.codec)
		if extra := len(mf.Payload) - len(f.b); err == nil && extra != 0 { // f.b goes on under mf.sum
			err = fmt.Errorf("%w: %d bytes after the request", ErrMalformedRequest, extra)
		}
		if err != nil {
			// The checksum matched, so this is the client's encoder speaking
			// garbage — deterministic, not retryable.
			reply(mf.ID, &ServerError{Code: CodeApp, Msg: err.Error()}, f)
			continue
		}
		sem <- struct{}{} // window full ⇒ pace the reader
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			reply(f.ID, fe.handler.Handle(f), f)
		}()
	}
}
