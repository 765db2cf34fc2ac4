package cloud

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/program"
)

// DefaultTenant is the engine key namespace requests with an empty tenant
// field are served under.
const DefaultTenant = ""

// DefaultReadTimeout bounds how long the server waits for one complete
// request (idle time between requests included). A client that stalls
// mid-message — accidentally or as a slow-loris — is disconnected instead
// of pinning a handler goroutine forever.
const DefaultReadTimeout = 2 * time.Minute

// Server is the cloud service: a listener (the "Networking Arm Core" of
// Fig. 11) admitting requests into the serving engine, which batches them
// onto a pool of application workers, each owning one simulated
// co-processor. The relinearization key is installed engine-side, as in any
// FV cloud deployment — the client never sends secret material.
type Server struct {
	Params *fv.Params
	// CKKSParams, when non-nil, enables the CmdCKKS* commands (the engine
	// must be built with the same Config.CKKSParams). Set before Serve.
	CKKSParams *ckks.Params
	Engine     *engine.Engine
	Logger     *log.Logger
	// ReadTimeout overrides DefaultReadTimeout when positive.
	ReadTimeout time.Duration
	// NodeID names this node in CmdInfo replies and cluster membership; set
	// it before Serve.
	NodeID string

	ln      net.Listener
	mu      sync.Mutex
	served  uint64
	closing bool
	conns   map[net.Conn]struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
}

// NewServer prepares a server in front of a serving engine. Evaluation keys
// are registered on the engine (SetGaloisKey below, engine.SetRelinKey for
// the relinearization key) under DefaultTenant.
func NewServer(params *fv.Params, eng *engine.Engine, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	return &Server{
		Params: params,
		Engine: eng,
		Logger: logger,
		conns:  make(map[net.Conn]struct{}),
		quit:   make(chan struct{}),
	}
}

// SetGaloisKey installs the key-switching key for one Galois element,
// enabling CmdRotate requests with that element (clients upload their
// rotation keys ahead of time, like relin keys).
func (s *Server) SetGaloisKey(gk *fv.GaloisKey) {
	s.Engine.SetGaloisKey(DefaultTenant, gk)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Listen binds the address and returns the bound address (useful with
// ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until Close/Shutdown. Each connection gets a
// reader goroutine, but the homomorphic work itself is admitted into the
// engine's bounded queue — an overloaded engine rejects instead of piling
// up unbounded per-connection work.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("cloud: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown gracefully drains the server: it stops accepting, lets every
// in-flight request finish (through the engine) and its response flush, and
// unblocks idle connection readers. It returns nil once all connection
// handlers have exited, or ctx.Err() if the context expires first.
//
// The engine itself is left running — it belongs to the caller, which may
// be sharing it; call Engine.Shutdown separately to drain the workers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closing
	s.closing = true
	if !already {
		close(s.quit)
		// Unblock handlers parked in ReadRequest. A handler that is busy
		// processing finishes its request and writes the response first;
		// it observes quit on its next loop.
		for c := range s.conns {
			c.SetReadDeadline(time.Now())
		}
	}
	ln := s.ln
	s.mu.Unlock()
	if ln != nil && !already {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
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
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Served returns the number of operations completed.
func (s *Server) Served() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	timeout := s.ReadTimeout
	if timeout <= 0 {
		timeout = DefaultReadTimeout
	}
	// Peek the first four bytes to tell a multiplexed session ("HEAM") from
	// the sequential framing ("HEA2"); the sequential loop reads
	// through the same buffered reader, so the peeked bytes are not lost.
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(timeout))
	magic, err := br.Peek(4)
	if err != nil {
		return
	}
	if [4]byte(magic) == muxMagic {
		s.serveMux(conn, br, timeout)
		return
	}
	for {
		// Deadline first, then the quit check: if Shutdown runs between the
		// two, its SetReadDeadline(now) lands after ours and still wins.
		conn.SetReadDeadline(time.Now().Add(timeout))
		select {
		case <-s.quit:
			return
		default:
		}
		req, err := ReadRequestCKKS(br, s.Params, s.CKKSParams)
		if err != nil {
			return // client closed, stalled past the deadline, or spoke garbage
		}
		if req.Cmd == CmdInfo {
			if err := WriteInfoResponse(conn, req.ID, s.info()); err != nil {
				s.Logger.Printf("cloud: write info response: %v", err)
				return
			}
			continue
		}
		if req.Cmd == CmdProgram {
			if err := WriteProgramResponse(conn, s.Params, s.processProgram(req)); err != nil {
				s.Logger.Printf("cloud: write program response: %v", err)
				return
			}
			continue
		}
		if req.Cmd == CmdKeyExport || req.Cmd == CmdKeyImport || req.Cmd == CmdAdmin {
			if err := s.writeMigrate(conn, req); err != nil {
				s.Logger.Printf("cloud: write %s response: %v", cmdName(req.Cmd), err)
				return
			}
			continue
		}
		resp := s.process(req)
		if err := WriteResponse(conn, s.Params, resp); err != nil {
			s.Logger.Printf("cloud: write response: %v", err)
			return
		}
	}
}

// serveMux runs one multiplexed session. Frames are read sequentially but
// dispatched concurrently: up to the granted window of requests execute in
// the engine at once, and each response frame goes out as its work finishes
// — completion order, not arrival order. When every window slot is occupied
// the reader itself blocks, so a client that overruns its window is paced by
// the transport rather than fanning one socket into unbounded engine work.
func (s *Server) serveMux(conn net.Conn, br *bufio.Reader, timeout time.Duration) {
	window, err := ReadMuxHello(br)
	if err != nil {
		return
	}
	if window > MaxMuxWindow {
		window = MaxMuxWindow
	}
	if err := WriteMuxHello(conn, window); err != nil {
		return
	}

	var wmu sync.Mutex // serializes response frames across dispatch goroutines
	writeFrame := func(id uint64, payload []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := WriteMuxFrame(conn, MuxFrameResponse, id, payload); err != nil {
			s.Logger.Printf("cloud: mux write response: %v", err)
			conn.Close() // fail the session; the read loop sees the close
		}
	}
	// errFrame answers one request ID with a typed v2 error response.
	errFrame := func(id uint64, code uint8, msg string) bool {
		var buf bytes.Buffer
		resp := &Response{Ver: ProtoV2, ID: id, Err: msg, Code: code}
		if err := WriteResponse(&buf, s.Params, resp); err != nil {
			return false
		}
		writeFrame(id, buf.Bytes())
		return true
	}

	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	defer wg.Wait() // flush in-flight dispatches before the conn closes
	maxPayload := maxMuxPayload(s.Params)
	if s.CKKSParams != nil {
		if cl := MaxCKKSRequestBytes(s.CKKSParams) + 64; cl > maxPayload {
			maxPayload = cl
		}
	}

	for {
		conn.SetReadDeadline(time.Now().Add(timeout))
		select {
		case <-s.quit:
			return
		default:
		}
		f, err := DecodeMuxFrame(br, maxPayload)
		if errors.Is(err, ErrMuxPayloadChecksum) {
			// The frame boundary held: fail exactly this request, retryably
			// (the payload was never decoded, so nothing executed), and keep
			// serving the session.
			if !errFrame(f.ID, CodeUnavailable, err.Error()) {
				return
			}
			continue
		}
		if err != nil {
			return // clean close, stall past the deadline, or stream garbage
		}
		if f.Type != MuxFrameRequest {
			s.Logger.Printf("cloud: mux client sent frame type %d", f.Type)
			return
		}
		req, err := ReadRequestCKKS(bytes.NewReader(f.Payload), s.Params, s.CKKSParams)
		if err != nil {
			// The checksum matched, so this is the client's encoder speaking
			// garbage — deterministic, not retryable.
			if !errFrame(f.ID, CodeApp, err.Error()) {
				return
			}
			continue
		}
		if req.ID != f.ID {
			if !errFrame(f.ID, CodeApp, "mux payload must be a request with the frame's ID") {
				return
			}
			continue
		}
		sem <- struct{}{} // window full ⇒ pace the reader
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			var buf bytes.Buffer
			var werr error
			switch req.Cmd {
			case CmdInfo:
				werr = WriteInfoResponse(&buf, req.ID, s.info())
			case CmdProgram:
				werr = WriteProgramResponse(&buf, s.Params, s.processProgram(req))
			case CmdKeyExport, CmdKeyImport, CmdAdmin:
				werr = s.writeMigrate(&buf, req)
			default:
				werr = WriteResponse(&buf, s.Params, s.process(req))
			}
			if werr != nil {
				s.Logger.Printf("cloud: mux encode response: %v", werr)
				conn.Close()
				return
			}
			writeFrame(req.ID, buf.Bytes())
		}()
	}
}

// info builds the CmdInfo capability advertisement.
func (s *Server) info() *ServerInfo {
	return &ServerInfo{
		Proto:       ProtoV2,
		NodeID:      s.NodeID,
		Workers:     s.Engine.Workers(),
		TenantAware: true,
		CKKS:        s.CKKSParams != nil,
		Tenants:     s.Engine.Tenants(),
	}
}

func (s *Server) process(req *Request) *Response {
	start := time.Now()
	resp := &Response{Ver: req.Ver, ID: req.ID}
	if req.Cmd == CmdPing {
		resp.Result = fv.NewCiphertext(s.Params, 2)
		return resp
	}
	op := engine.Op{Tenant: req.Tenant, A: req.A, B: req.B}
	switch req.Cmd {
	case CmdAdd:
		op.Kind = engine.OpAdd
	case CmdMul:
		op.Kind = engine.OpMul
	case CmdRotate:
		op.Kind = engine.OpRotate
		op.G = int(req.G)
	case CmdCKKSAdd:
		op.Kind = engine.OpCKKSAdd
		op.CA, op.CB = req.CA, req.CB
	case CmdCKKSMul:
		op.Kind = engine.OpCKKSMul
		op.CA, op.CB = req.CA, req.CB
	case CmdCKKSRotate:
		op.Kind = engine.OpCKKSRotate
		op.CA = req.CA
		op.R = int(req.R)
	default:
		resp.Err = fmt.Sprintf("unknown command %d", req.Cmd)
		return resp
	}
	res, err := s.Engine.Submit(context.Background(), op)
	if err != nil {
		resp.Err = err.Error()
		resp.Code = errCode(err)
		return resp
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	s.Logger.Printf("cloud: cmd %d tenant %q served in %v by worker %d (batch %d, simulated HW %.3f ms)",
		req.Cmd, req.Tenant, time.Since(start), res.Worker, res.Batch, res.Report.ComputeSeconds()*1e3)
	resp.Result = res.Ct
	resp.CKKSResult = res.CCt
	resp.ComputeNanos = uint64(res.Report.ComputeSeconds() * 1e9)
	resp.Worker = uint32(res.Worker)
	return resp
}

// processProgram decodes and schedules one CmdProgram request. Decoding
// happens here — after the frame was accepted — so a structurally broken or
// checksum-failing program turns into a typed error response (CodeApp) on a
// connection that stays usable, instead of a dropped connection.
func (s *Server) processProgram(req *Request) *ProgramResponse {
	start := time.Now()
	resp := &ProgramResponse{ID: req.ID}
	p, err := program.DecodeBytes(req.ProgBytes, ProgramLimits())
	if err != nil {
		resp.Err = err.Error()
		resp.Code = CodeApp
		return resp
	}
	res, err := s.Engine.SubmitProgram(context.Background(), engine.ProgramOp{
		Tenant: req.Tenant,
		Prog:   p,
		Inputs: req.Inputs,
	})
	if err != nil {
		resp.Err = err.Error()
		resp.Code = errCode(err)
		return resp
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	s.Logger.Printf("cloud: program tenant %q: %d nodes served in %v (simulated makespan %.3f ms on %d workers, %d key loads)",
		req.Tenant, res.Nodes, time.Since(start), res.MakespanCycles.Seconds()*1e3, res.Workers, res.KeyLoads)
	resp.Outputs = res.Outputs
	resp.MakespanNanos = uint64(res.MakespanCycles.Seconds() * 1e9)
	resp.SerialNanos = uint64(res.SerialCycles.Seconds() * 1e9)
	resp.KeyLoads = uint32(res.KeyLoads)
	resp.Nodes = uint32(res.Nodes)
	return resp
}

// writeMigrate serves the key-migration commands against the engine's key
// store and refuses CmdAdmin — membership control belongs to the routing
// tier, and a data node answering it would split the ring's brain.
func (s *Server) writeMigrate(w io.Writer, req *Request) error {
	switch req.Cmd {
	case CmdKeyExport:
		ks := s.Engine.ExportTenantKeys(req.Tenant)
		if ks.Empty() {
			return WriteBlobError(w, req.ID, CodeApp, fmt.Sprintf("no evaluation keys for tenant %q", req.Tenant))
		}
		blob, err := EncodeTenantKeys(s.Params, s.CKKSParams, ks)
		if err != nil {
			return WriteBlobError(w, req.ID, CodeApp, err.Error())
		}
		s.Logger.Printf("cloud: exported %d keys for tenant %q (%d bytes)", ks.Count(), req.Tenant, len(blob))
		return WriteBlobResponse(w, req.ID, blob)
	case CmdKeyImport:
		ks, err := DecodeTenantKeys(req.Blob, s.Params, s.CKKSParams)
		if err != nil {
			return WriteBlobError(w, req.ID, CodeApp, err.Error())
		}
		s.Engine.ImportTenantKeys(req.Tenant, ks)
		s.Logger.Printf("cloud: imported %d keys for tenant %q", ks.Count(), req.Tenant)
		body, err := json.Marshal(&ImportAck{Tenant: req.Tenant, Keys: ks.Count()})
		if err != nil {
			return WriteBlobError(w, req.ID, CodeApp, err.Error())
		}
		return WriteBlobResponse(w, req.ID, body)
	default: // CmdAdmin
		return WriteBlobError(w, req.ID, CodeApp, "admin: this node is not a routing tier")
	}
}

// errCode maps an engine error to a wire error code: lifecycle and capacity
// failures are retryable on a replica (the op never executed); a detected
// integrity fault is node-local corruption, retryable elsewhere; everything
// else — a missing key, a malformed operand, a noise-budget refusal — is
// deterministic.
func errCode(err error) uint8 {
	if errors.Is(err, engine.ErrOverloaded) ||
		errors.Is(err, engine.ErrShutdown) ||
		errors.Is(err, engine.ErrDeadlineExceeded) {
		return CodeUnavailable
	}
	if errors.Is(err, hwsim.ErrIntegrity) {
		return CodeIntegrity
	}
	if errors.Is(err, engine.ErrQuotaExceeded) {
		return CodeQuota
	}
	return CodeApp
}
