// Package cloud implements the client/server system of the paper's Fig. 11
// over TCP: a server process owning the (simulated) Arm+FPGA platform — one
// networking goroutine accepting connections and two application workers,
// each driving its own co-processor — and a client that uploads encrypted
// operands and receives encrypted results. This is the deployment shape the
// paper targets ("make the Arm processor a server for executing different
// homomorphic applications in the cloud, using this FPGA-based
// co-processor").
//
// # Wire protocol
//
// One request framing, v2, carried two ways on the same port:
//
//	sequential ("HEA2"): magic, version byte, command byte, request ID
//	             (8 bytes LE), tenant (1-byte length + UTF-8 bytes), payload;
//	             one request, then its response, per round trip.
//	mux ("HEAM"): a session of checksummed frames, each wrapping one such
//	             request or response, completing out of order (mux.go).
//
// Responses echo the request ID and carry an error code that distinguishes
// retryable unavailability (overload, shutdown, queue-deadline) from
// application errors, which is what the cluster router keys failover on.
package cloud

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/program"
)

// Typed decode errors. Every structurally invalid frame — bad magic, bad
// version, out-of-range length, unknown command or status byte, truncation
// after the magic matched, or an invalid ciphertext body — is reported as an
// error wrapping one of these, so callers can distinguish "the peer spoke
// garbage" (drop the connection) from transport errors (retry elsewhere).
// A clean EOF before any byte of a frame is NOT malformed: it is how a peer
// hangs up between requests, and it surfaces as io.EOF.
var (
	ErrMalformedRequest  = errors.New("cloud: malformed request")
	ErrMalformedResponse = errors.New("cloud: malformed response")
)

// malformed wraps err as a malformed-frame error once the frame has started
// (the magic or status byte was consumed): from that point truncation is
// corruption, not a clean close.
func malformed(sentinel error, context string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %s: %w", sentinel, context, err)
}

// ProtoVersion is the one protocol version on the wire, the byte after a
// request's magic: requests carry the ID and tenant the cluster routes on.
const ProtoVersion uint8 = 2

// MaxTenantLen bounds the tenant field of a v2 request (it is
// length-prefixed with one byte, and routers hash it on every request).
const MaxTenantLen = 128

// Command codes of the wire protocol.
const (
	CmdAdd    uint8 = 1
	CmdMul    uint8 = 2
	CmdPing   uint8 = 3
	CmdRotate uint8 = 4 // Galois automorphism; G carries the element
	CmdInfo   uint8 = 5 // server capability advertisement
	// CmdProgram submits a whole compiled circuit (internal/program) as one
	// request: the serialized program plus its input ciphertexts, answered
	// with every output ciphertext. One round trip instead of one per gate.
	CmdProgram uint8 = 6
	// CKKS approximate-arithmetic commands: the siblings of
	// CmdAdd/CmdMul/CmdRotate over CKKS ciphertexts. CmdCKKSMul includes the
	// trailing rescale (the result arrives one level down); CmdCKKSRotate
	// carries the slot rotation count in the request's R field. Servers
	// without CKKS parameters treat these frames as malformed — clients
	// discover support via CmdInfo's CKKS flag.
	CmdCKKSAdd    uint8 = 7
	CmdCKKSMul    uint8 = 8
	CmdCKKSRotate uint8 = 9

	// Key-state migration commands. CmdKeyExport asks a node for
	// the complete evaluation-key set of the request's tenant (both schemes),
	// answered with a checksummed key blob; CmdKeyImport installs such a blob
	// on a node. The cluster migrator uses the pair to move tenant key state
	// ahead of a routing cutover.
	CmdKeyExport uint8 = 10
	CmdKeyImport uint8 = 11

	statusOK  uint8 = 0
	statusErr uint8 = 1
)

// IsCKKSCmd reports whether cmd is one of the CKKS commands — the one list
// the wire codec and the router's CKKS guard both read.
func IsCKKSCmd(cmd uint8) bool {
	return cmd == CmdCKKSAdd || cmd == CmdCKKSMul || cmd == CmdCKKSRotate
}

// Error codes carried by error responses.
const (
	// CodeApp is a deterministic application error (bad operand, missing
	// evaluation key); retrying elsewhere would fail the same way.
	CodeApp uint8 = 0
	// CodeUnavailable means this node could not serve the request right now
	// (overloaded, shutting down, queue deadline expired). The operation did
	// not execute; an idempotent request may be retried on a replica.
	CodeUnavailable uint8 = 1
	// CodeIntegrity means this node's co-processor detected corrupted
	// state (a fingerprint mismatch) and refused to return the result. The
	// fault is node-local — bad BRAM, a glitched DMA, a dying compute unit —
	// so an idempotent request should be retried, ideally on a replica.
	CodeIntegrity uint8 = 2
	// CodeQuota means the tenant's per-node in-flight quota refused the
	// admission. The operation never executed and other replicas count the
	// tenant separately, so an idempotent request may be retried elsewhere
	// or after backoff.
	CodeQuota uint8 = 3
)

// protocolMagicV2 opens every sequential request; the mux session magic
// (mux.go) shares the port and is told apart by these first four bytes.
var protocolMagicV2 = [4]byte{'H', 'E', 'A', '2'}

// ProgramLimits is the decode budget for programs arriving on the wire —
// the program codec's DefaultLimits. A frame claiming more is malformed.
func ProgramLimits() program.Limits { return program.DefaultLimits() }

// Request is one homomorphic operation on uploaded ciphertexts.
type Request struct {
	Cmd uint8
	G   uint32 // Galois element (CmdRotate only)
	// Bench-only: nothing reads it.
	Ver    uint8
	ID     uint64 // request ID, echoed in the response
	Tenant string // evaluation-key namespace; "" is the default tenant
	A, B   *fv.Ciphertext

	// CA and CB are the CKKS operands (CmdCKKS* commands); R is the slot
	// rotation count of CmdCKKSRotate.
	CA, CB *ckks.Ciphertext
	R      int32

	// ProgBytes and Inputs carry a CmdProgram payload: the serialized
	// program (framing validated here, semantics by program.Decode on the
	// server so a bad program yields an error response, not a dropped
	// connection) and its input ciphertexts in program order.
	ProgBytes []byte
	Inputs    []*fv.Ciphertext

	// Blob carries the opaque payload of CmdKeyImport (a tenant key blob,
	// see EncodeTenantKeys). Framed as a length-prefixed byte string;
	// semantics are validated server-side so a bad blob yields an error
	// response, not a dropped connection.
	Blob []byte
}

// fvSize and ckksSize are the encoded sizes of an operand that may be absent.
func fvSize(params *fv.Params, ct *fv.Ciphertext) int {
	if ct == nil {
		return 0
	}
	return ct.ByteSize(params)
}

func ckksSize(ct *ckks.Ciphertext) int {
	if ct == nil {
		return 0
	}
	return ckks.ByteSize(len(ct.Els), ct.Level(), ct.Els[0].N())
}

// encodedSize bounds the serialized size of req from above, within a few
// dozen bytes: what picks the pooled buffer codec.encode fills, so it never
// regrows under a ciphertext-sized body.
func (req *Request) encodedSize(params *fv.Params) int {
	n := 4 + 1 + 1 + 8 + 1 + len(req.Tenant) + 4 // header, and G or R
	n += 4 + len(req.Blob) + 4 + len(req.ProgBytes) + 4
	n += fvSize(params, req.A) + fvSize(params, req.B) + ckksSize(req.CA) + ckksSize(req.CB)
	for _, ct := range req.Inputs {
		n += fvSize(params, ct)
	}
	return n
}

// appendRequestBody appends the body req.Cmd carries after the tenant.
func appendRequestBody(b []byte, params *fv.Params, req *Request) ([]byte, error) {
	var err error
	switch req.Cmd {
	case CmdPing, CmdInfo, CmdKeyExport:
		return b, nil
	case CmdKeyImport:
		// The receiver enforces the tight bound (the key-blob bound of its own
		// parameter sets); the writer only refuses frames it could never
		// legally produce.
		if len(req.Blob) == 0 {
			return b, fmt.Errorf("cloud: %s needs a payload", cmdName(req.Cmd))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Blob)))
		return append(b, req.Blob...), nil
	case CmdProgram:
		l := ProgramLimits()
		if len(req.ProgBytes) == 0 || len(req.ProgBytes) > l.MaxEncodedBytes() {
			return b, fmt.Errorf("cloud: program of %d bytes outside (0, %d]", len(req.ProgBytes), l.MaxEncodedBytes())
		}
		if len(req.Inputs) == 0 || len(req.Inputs) > l.MaxInputs {
			return b, fmt.Errorf("cloud: %d program inputs outside (0, %d]", len(req.Inputs), l.MaxInputs)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.ProgBytes)))
		b = append(b, req.ProgBytes...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Inputs)))
		for _, ct := range req.Inputs {
			if b, err = ct.AppendTo(b, params); err != nil {
				return b, err
			}
		}
		return b, nil
	case CmdRotate:
		b = binary.LittleEndian.AppendUint32(b, req.G)
		return req.A.AppendTo(b, params)
	case CmdCKKSAdd, CmdCKKSMul:
		if b, err = req.CA.AppendTo(b); err != nil {
			return b, err
		}
		return req.CB.AppendTo(b)
	case CmdCKKSRotate:
		b = binary.LittleEndian.AppendUint32(b, uint32(req.R))
		return req.CA.AppendTo(b)
	}
	if b, err = req.A.AppendTo(b, params); err != nil {
		return b, err
	}
	return req.B.AppendTo(b, params)
}

func cmdName(cmd uint8) string {
	switch cmd {
	case CmdAdd:
		return "add"
	case CmdMul:
		return "mul"
	case CmdPing:
		return "ping"
	case CmdRotate:
		return "rotate"
	case CmdInfo:
		return "info"
	case CmdProgram:
		return "program"
	case CmdCKKSAdd:
		return "ckks_add"
	case CmdCKKSMul:
		return "ckks_mul"
	case CmdCKKSRotate:
		return "ckks_rotate"
	case CmdKeyExport:
		return "key_export"
	case CmdKeyImport:
		return "key_import"
	}
	return fmt.Sprintf("cmd(%d)", cmd)
}

// Reply envelope. Every reply — whatever the command — opens with a status
// byte and the request ID it answers, then carries one of two halves:
//
//	error:   status 1 | ID (8 LE) | code (1) | message length (4 LE) | message
//	success: status 0 | ID (8 LE) | the body of the command's reply kind
//
//	kind      commands                        body
//	op        add mul rotate ping, ckks_*     compute ns (8) | worker (4) | ciphertext
//	program   program                         makespan ns (8) | serial ns (8) | key loads (4) |
//	                                          nodes (4) | output count (4) | ciphertexts
//	info      info                            length (4) | JSON ServerInfo
//	blob      key_export key_import           length (4) | bytes
//
// The error half is the same bytes for all four kinds, so a peer that could
// not even decode the request (and so does not know its kind) can still
// refuse it, and one writer and one reader serve every command.

// Reply is what a Handler answers a request with: one of the four kinds
// (*Response, *ProgramResponse, *ServerInfo, Blob), a *ServerError, or — at
// the routing tier — the *RawReply a backend sent. It encodes itself as the
// reply to request id into one pooled buffer, which the writer releases once
// the bytes are on the wire.
type Reply interface {
	encode(params *fv.Params, id uint64) (*buffer, error)
}

// replySize is encodedSize for a reply: its ciphertexts or blob plus room for
// the fixed fields of any kind. Kinds that marshal their body at write time
// (*ServerInfo) are small and left to grow on their own.
func replySize(rep Reply, params *fv.Params) int {
	n := 64
	switch r := rep.(type) {
	case *Response:
		n += len(r.Err) + fvSize(params, r.Result) + ckksSize(r.CKKSResult)
	case *ProgramResponse:
		n += len(r.Err)
		for _, ct := range r.Outputs {
			n += fvSize(params, ct)
		}
	case Blob:
		n += len(r)
	case *ServerError:
		n += len(r.Msg)
	}
	return n
}

// encodeReply runs one kind's encoder over a buffer sized for rep: body
// appends everything after the status byte and request ID.
func encodeReply(rep Reply, params *fv.Params, status uint8, id uint64, body func(b []byte) ([]byte, error)) (*buffer, error) {
	buf := getBuf(replySize(rep, params))
	b, err := body(binary.LittleEndian.AppendUint64(append(buf.b, status), id))
	buf.b = b
	if err != nil {
		buf.release()
		return nil, err
	}
	return buf, nil
}

// writeReply writes rep's encoding as the reply to request id, as one Write.
func writeReply(w io.Writer, rep Reply, params *fv.Params, id uint64) error {
	buf, err := rep.encode(params, id)
	if err != nil {
		return err
	}
	defer buf.release()
	_, err = w.Write(buf.b)
	return err
}

// Response is the op-kind reply: the result ciphertext and the simulated
// hardware timing.
type Response struct {
	Err  string
	Code uint8 // error code (CodeApp, CodeUnavailable, ...)
	// Bench-only: nothing reads it; only ReadResponseV sets it.
	Ver          uint8
	ID           uint64 // echoes the request ID
	Result       *fv.Ciphertext
	CKKSResult   *ckks.Ciphertext // result of a CKKS command (Result is nil)
	ComputeNanos uint64           // simulated co-processor latency
	Worker       uint32           // which application core / co-processor served it
}

func (resp *Response) encode(params *fv.Params, id uint64) (*buffer, error) {
	if resp.Err != "" {
		return (&ServerError{Code: resp.Code, Msg: resp.Err}).encode(params, id)
	}
	return encodeReply(resp, params, statusOK, id, func(b []byte) ([]byte, error) {
		b = binary.LittleEndian.AppendUint64(b, resp.ComputeNanos)
		b = binary.LittleEndian.AppendUint32(b, resp.Worker)
		if resp.CKKSResult != nil {
			return resp.CKKSResult.AppendTo(b)
		}
		return resp.Result.AppendTo(b, params)
	})
}

// ServerInfo is the info-kind reply: what the node is and what it speaks. The
// cluster layer uses it to discover tenant support; heserver advertises its
// node ID and registered tenants here.
type ServerInfo struct {
	Proto       uint8    `json:"proto"` // highest protocol version served
	NodeID      string   `json:"node_id,omitempty"`
	Workers     int      `json:"workers"`
	TenantAware bool     `json:"tenant_aware"`
	CKKS        bool     `json:"ckks,omitempty"`    // serves the CmdCKKS* commands
	Tenants     []string `json:"tenants,omitempty"` // namespaces with registered keys
}

// maxInfoBytes bounds the JSON body of an info reply.
const maxInfoBytes = 1 << 20

func (info *ServerInfo) encode(params *fv.Params, id uint64) (*buffer, error) {
	body, err := json.Marshal(info)
	if err != nil {
		return nil, err
	}
	return Blob(body).encode(params, id)
}

// Blob is the blob-kind reply: an opaque length-prefixed body — a tenant key
// blob (CmdKeyExport) or a small JSON acknowledgement (CmdKeyImport).
type Blob []byte

func (blob Blob) encode(params *fv.Params, id uint64) (*buffer, error) {
	return encodeReply(blob, params, statusOK, id, func(b []byte) ([]byte, error) {
		return append(binary.LittleEndian.AppendUint32(b, uint32(len(blob))), blob...), nil
	})
}

// ProgramResponse is the program-kind reply: every program output plus the
// scheduler's accounting.
type ProgramResponse struct {
	Err  string
	Code uint8
	ID   uint64

	Outputs []*fv.Ciphertext
	// MakespanNanos is the simulated completion time of the scheduled DAG;
	// SerialNanos is the one-lane cost of the same nodes — what op-at-a-time
	// submission would have paid in compute alone, before round trips.
	MakespanNanos uint64
	SerialNanos   uint64
	KeyLoads      uint32 // evaluation keys streamed (once each per program)
	Nodes         uint32 // DAG nodes executed
}

func (resp *ProgramResponse) encode(params *fv.Params, id uint64) (*buffer, error) {
	if resp.Err != "" {
		return (&ServerError{Code: resp.Code, Msg: resp.Err}).encode(params, id)
	}
	if len(resp.Outputs) == 0 || len(resp.Outputs) > ProgramLimits().MaxOutputs {
		return nil, fmt.Errorf("cloud: %d program outputs outside (0, %d]", len(resp.Outputs), ProgramLimits().MaxOutputs)
	}
	return encodeReply(resp, params, statusOK, id, func(b []byte) ([]byte, error) {
		b = binary.LittleEndian.AppendUint64(b, resp.MakespanNanos)
		b = binary.LittleEndian.AppendUint64(b, resp.SerialNanos)
		b = binary.LittleEndian.AppendUint32(b, resp.KeyLoads)
		b = binary.LittleEndian.AppendUint32(b, resp.Nodes)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Outputs)))
		for _, ct := range resp.Outputs {
			var err error
			if b, err = ct.AppendTo(b, params); err != nil {
				return b, err
			}
		}
		return b, nil
	})
}

// ServerError is an error the server reported in a reply — the node is alive
// and speaking the protocol; the operation itself failed. It is the error
// half of the envelope on both sides of the wire: what a client's call
// returns, and a Reply a handler can answer any command with.
type ServerError struct {
	Code uint8
	Msg  string
}

func (e *ServerError) Error() string { return "cloud: server error: " + e.Msg }

// encode writes the error half: code, message length, message.
func (e *ServerError) encode(params *fv.Params, id uint64) (*buffer, error) {
	return encodeReply(e, params, statusErr, id, func(b []byte) ([]byte, error) {
		b = append(b, e.Code)
		return append(binary.LittleEndian.AppendUint32(b, uint32(len(e.Msg))), e.Msg...), nil
	})
}

// Retryable reports whether the failure was node-local — unavailability
// (overload, shutdown), a detected integrity fault, or a per-tenant quota
// refusal — rather than a deterministic application error, so an idempotent
// request may be retried on a replica.
func (e *ServerError) Retryable() bool {
	return e.Code == CodeUnavailable || e.Code == CodeIntegrity || e.Code == CodeQuota
}
