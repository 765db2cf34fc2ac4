package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/program"
)

// DefaultTenant is the engine key namespace requests with an empty tenant
// field are served under.
const DefaultTenant = ""

// Server is the data node: the wire front-end admitting requests into the
// serving engine, which batches them onto a pool of application workers,
// each owning one simulated co-processor. The relinearization key is
// installed engine-side, as in any FV cloud deployment — the client never
// sends secret material. Params, CKKSParams (set it before Serve to enable
// the CmdCKKS* commands; the engine must be built with the same
// Config.CKKSParams), Logger and ReadTimeout are the embedded Frontend's.
type Server struct {
	*Frontend
	Engine *engine.Engine
	// NodeID names this node in CmdInfo replies and cluster membership; set
	// it before Serve.
	NodeID string

	served atomic.Uint64
}

// NewServer prepares a server in front of a serving engine. Evaluation keys
// are registered on the engine (SetGaloisKey below, engine.SetRelinKey for
// the relinearization key) under DefaultTenant.
func NewServer(params *fv.Params, eng *engine.Engine, logger *log.Logger) *Server {
	s := &Server{Engine: eng}
	s.Frontend = NewFrontend(params, s, logger)
	return s
}

// SetGaloisKey installs the key-switching key for one Galois element,
// enabling CmdRotate requests with that element (clients upload their
// rotation keys ahead of time, like relin keys).
func (s *Server) SetGaloisKey(gk *fv.GaloisKey) {
	s.Engine.SetGaloisKey(DefaultTenant, gk)
}

// Served returns the number of operations completed.
func (s *Server) Served() uint64 { return s.served.Load() }

// Handle serves one request against the engine. This is where a frame is
// materialized: its operands decode into ciphertexts recycled through the
// front-end's pool, which takes them back — with the frame — once the reply
// (which may carry one of them, as a program output) has been written.
func (s *Server) Handle(f *Frame) Reply {
	req, err := f.Request()
	if err != nil {
		return failed(err)
	}
	switch req.Cmd {
	case CmdInfo:
		return s.info()
	case CmdProgram:
		return s.processProgram(req)
	case CmdKeyExport, CmdKeyImport:
		return s.migrate(req)
	}
	return s.process(req)
}

// info builds the CmdInfo capability advertisement.
func (s *Server) info() *ServerInfo {
	return &ServerInfo{
		Proto:       ProtoVersion,
		NodeID:      s.NodeID,
		Workers:     s.Engine.Workers(),
		TenantAware: true,
		CKKS:        s.CKKSParams != nil,
		Tenants:     s.Engine.Tenants(),
	}
}

// failed turns an error into the reply reporting it, typed by errCode.
func failed(err error) *ServerError {
	return &ServerError{Code: errCode(err), Msg: err.Error()}
}

func (s *Server) process(req *Request) Reply {
	start := time.Now()
	if req.Cmd == CmdPing {
		return &Response{Result: fv.NewCiphertext(s.Params, 2)}
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
		return &ServerError{Code: CodeApp, Msg: fmt.Sprintf("unknown command %d", req.Cmd)}
	}
	res, err := s.Engine.Submit(context.Background(), op)
	if err != nil {
		return failed(err)
	}
	s.served.Add(1)
	s.Logger.Printf("cloud: cmd %d tenant %q served in %v by worker %d (batch %d, simulated HW %.3f ms)",
		req.Cmd, req.Tenant, time.Since(start), res.Worker, res.Batch, res.Report.ComputeSeconds()*1e3)
	return &Response{
		Result:       res.Ct,
		CKKSResult:   res.CCt,
		ComputeNanos: uint64(res.Report.ComputeSeconds() * 1e9),
		Worker:       uint32(res.Worker),
	}
}

// processProgram decodes and schedules one CmdProgram request. Decoding
// happens here — after the frame was accepted — so a structurally broken or
// checksum-failing program turns into a typed error reply (CodeApp) on a
// connection that stays usable, instead of a dropped connection.
func (s *Server) processProgram(req *Request) Reply {
	start := time.Now()
	p, err := program.DecodeBytes(req.ProgBytes, ProgramLimits())
	if err != nil {
		return failed(err)
	}
	res, err := s.Engine.SubmitProgram(context.Background(), engine.ProgramOp{
		Tenant: req.Tenant,
		Prog:   p,
		Inputs: req.Inputs,
	})
	if err != nil {
		return failed(err)
	}
	s.served.Add(1)
	s.Logger.Printf("cloud: program tenant %q: %d nodes served in %v (simulated makespan %.3f ms on %d workers, %d key loads)",
		req.Tenant, res.Nodes, time.Since(start), res.MakespanCycles.Seconds()*1e3, res.Workers, res.KeyLoads)
	return &ProgramResponse{
		Outputs:       res.Outputs,
		MakespanNanos: uint64(res.MakespanCycles.Seconds() * 1e9),
		SerialNanos:   uint64(res.SerialCycles.Seconds() * 1e9),
		KeyLoads:      uint32(res.KeyLoads),
		Nodes:         uint32(res.Nodes),
	}
}

// migrate serves the key-migration commands against the engine's key store.
func (s *Server) migrate(req *Request) Reply {
	if req.Cmd == CmdKeyExport {
		ks := s.Engine.ExportTenantKeys(req.Tenant)
		if ks.Empty() {
			return &ServerError{Code: CodeApp, Msg: fmt.Sprintf("no evaluation keys for tenant %q", req.Tenant)}
		}
		blob, err := EncodeTenantKeys(s.Params, s.CKKSParams, ks)
		if err != nil {
			return failed(err)
		}
		s.Logger.Printf("cloud: exported %d keys for tenant %q (%d bytes)", ks.Count(), req.Tenant, len(blob))
		return Blob(blob)
	}
	ks, err := DecodeTenantKeys(req.Blob, s.Params, s.CKKSParams)
	if err != nil {
		return failed(err)
	}
	s.Engine.ImportTenantKeys(req.Tenant, ks)
	s.Logger.Printf("cloud: imported %d keys for tenant %q", ks.Count(), req.Tenant)
	body, err := json.Marshal(&ImportAck{Tenant: req.Tenant, Keys: ks.Count()})
	if err != nil {
		return failed(err)
	}
	return Blob(body)
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
