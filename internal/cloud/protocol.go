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

// ProtoV2 is the one protocol version on the wire: requests carry the
// request ID and tenant fields the cluster layer routes on.
const ProtoV2 uint8 = 2

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
	// CmdAdmin carries a cluster-membership control message (join / leave /
	// drain) as a small JSON body. Only the routing tier accepts it; data
	// nodes answer with an error.
	CmdAdmin uint8 = 12

	statusOK  uint8 = 0
	statusErr uint8 = 1
)

// isCKKSCmd reports whether cmd is one of the CKKS commands.
func isCKKSCmd(cmd uint8) bool {
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

// MaxRequestBytes returns the upper bound of one serialized request under
// params: the header (magic + version + command + request ID + tenant +
// Galois element) plus two ciphertexts of at most three elements
// each. ReadRequest refuses to consume more than this from the connection,
// so a malicious or corrupted stream cannot make the server read (or
// allocate) without bound.
func MaxRequestBytes(params *fv.Params) int {
	ctMax := 8 + 3*params.QBasis.K()*params.N()*4
	return 4 + 1 + 1 + 8 + 1 + MaxTenantLen + 4 + 2*ctMax
}

// ProgramLimits is the decode budget for programs arriving on the wire —
// the program codec's DefaultLimits. A frame claiming more is malformed.
func ProgramLimits() program.Limits { return program.DefaultLimits() }

// MaxProgramRequestBytes returns the upper bound of one CmdProgram request:
// the v2 header, the largest program ProgramLimits admits, and one
// ciphertext per allowed program input.
func MaxProgramRequestBytes(params *fv.Params) int {
	ctMax := 8 + 3*params.QBasis.K()*params.N()*4
	l := ProgramLimits()
	return 4 + 1 + 1 + 8 + 1 + MaxTenantLen + 4 + l.MaxEncodedBytes() + 4 + l.MaxInputs*ctMax
}

// Request is one homomorphic operation on uploaded ciphertexts.
type Request struct {
	Cmd uint8
	G   uint32 // Galois element (CmdRotate only)
	// Ver is the protocol version the request was read in (always ProtoV2);
	// writers ignore it.
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
	// see EncodeTenantKeys) or CmdAdmin (a JSON AdminRequest). Framed as a
	// length-prefixed byte string; semantics are validated server-side so a
	// bad blob yields an error response, not a dropped connection.
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
// dozen bytes: what a mux frame buffer is grown to, once, before the codec
// writes a ciphertext-sized body into it row by row.
func (req *Request) encodedSize(params *fv.Params) int {
	n := 4 + 1 + 1 + 8 + 1 + len(req.Tenant) + 4 // header, and G or R
	n += 4 + len(req.Blob) + 4 + len(req.ProgBytes) + 4
	n += fvSize(params, req.A) + fvSize(params, req.B) + ckksSize(req.CA) + ckksSize(req.CB)
	for _, ct := range req.Inputs {
		n += fvSize(params, ct)
	}
	return n
}

// WriteRequest serializes a request.
func WriteRequest(w io.Writer, params *fv.Params, req *Request) error {
	if len(req.Tenant) > MaxTenantLen {
		return fmt.Errorf("cloud: tenant %q longer than %d bytes", req.Tenant, MaxTenantLen)
	}
	hdr := make([]byte, 0, 4+1+1+8+1+len(req.Tenant))
	hdr = append(hdr, protocolMagicV2[:]...)
	hdr = append(hdr, ProtoV2, req.Cmd)
	hdr = binary.LittleEndian.AppendUint64(hdr, req.ID)
	hdr = append(hdr, byte(len(req.Tenant)))
	hdr = append(hdr, req.Tenant...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return writeRequestBody(w, params, req)
}

func writeRequestBody(w io.Writer, params *fv.Params, req *Request) error {
	switch req.Cmd {
	case CmdPing, CmdInfo, CmdKeyExport:
		return nil
	case CmdKeyImport, CmdAdmin:
		// The receiver enforces the tight bound (MaxKeyBlobBytes under its
		// own parameter sets, MaxAdminBytes for admin); the writer only
		// refuses frames it could never legally produce.
		if len(req.Blob) == 0 {
			return fmt.Errorf("cloud: %s needs a payload", cmdName(req.Cmd))
		}
		if req.Cmd == CmdAdmin && len(req.Blob) > MaxAdminBytes {
			return fmt.Errorf("cloud: admin payload of %d bytes exceeds %d", len(req.Blob), MaxAdminBytes)
		}
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(req.Blob)))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		_, err := w.Write(req.Blob)
		return err
	case CmdProgram:
		l := ProgramLimits()
		if len(req.ProgBytes) == 0 || len(req.ProgBytes) > l.MaxEncodedBytes() {
			return fmt.Errorf("cloud: program of %d bytes outside (0, %d]", len(req.ProgBytes), l.MaxEncodedBytes())
		}
		if len(req.Inputs) == 0 || len(req.Inputs) > l.MaxInputs {
			return fmt.Errorf("cloud: %d program inputs outside (0, %d]", len(req.Inputs), l.MaxInputs)
		}
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(req.ProgBytes)))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		if _, err := w.Write(req.ProgBytes); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(n[:], uint32(len(req.Inputs)))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		for _, ct := range req.Inputs {
			if err := ct.WriteTo(w, params); err != nil {
				return err
			}
		}
		return nil
	case CmdRotate:
		var g [4]byte
		binary.LittleEndian.PutUint32(g[:], req.G)
		if _, err := w.Write(g[:]); err != nil {
			return err
		}
		return req.A.WriteTo(w, params)
	case CmdCKKSAdd, CmdCKKSMul:
		if err := req.CA.Write(w); err != nil {
			return err
		}
		return req.CB.Write(w)
	case CmdCKKSRotate:
		var r4 [4]byte
		binary.LittleEndian.PutUint32(r4[:], uint32(req.R))
		if _, err := w.Write(r4[:]); err != nil {
			return err
		}
		return req.CA.Write(w)
	}
	if err := req.A.WriteTo(w, params); err != nil {
		return err
	}
	return req.B.WriteTo(w, params)
}

// MaxCKKSRequestBytes returns the upper bound of one CmdCKKS* request: the
// v2 header and rotation count plus two ciphertexts of at most three
// elements at the top of the chain.
func MaxCKKSRequestBytes(cparams *ckks.Params) int {
	ctMax := ckks.ByteSize(3, cparams.MaxLevel(), cparams.N())
	return 4 + 1 + 1 + 8 + 1 + MaxTenantLen + 4 + 2*ctMax
}

// ReadRequest deserializes a request. It reads at most
// MaxRequestBytes(params) from r; a message claiming more than that fails
// with an unexpected-EOF error instead of wedging the reader. CKKS commands
// are rejected as malformed — use ReadRequestCKKS on CKKS-enabled servers.
func ReadRequest(r io.Reader, params *fv.Params) (*Request, error) {
	return ReadRequestCKKS(r, params, nil)
}

// ReadRequestCKKS is ReadRequest plus the CKKS commands, whose ciphertext
// bodies decode under cparams. A nil cparams refuses those commands (the
// server cannot even frame the body without the parameter set).
func ReadRequestCKKS(r io.Reader, params *fv.Params, cparams *ckks.Params) (*Request, error) {
	limit := MaxRequestBytes(params)
	if pl := MaxProgramRequestBytes(params); pl > limit {
		limit = pl
	}
	if cparams != nil {
		if cl := MaxCKKSRequestBytes(cparams); cl > limit {
			limit = cl
		}
	}
	if kl := MaxKeyBlobBytes(params, cparams) + 4 + 1 + 1 + 8 + 1 + MaxTenantLen + 4; kl > limit {
		limit = kl
	}
	r = io.LimitReader(r, int64(limit))
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != protocolMagicV2 {
		return nil, fmt.Errorf("%w: bad protocol magic %q", ErrMalformedRequest, magic[:])
	}
	var hdr [10]byte // version, command, request ID
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, malformed(ErrMalformedRequest, "truncated v2 header", err)
	}
	if hdr[0] != ProtoV2 {
		return nil, fmt.Errorf("%w: unsupported protocol version %d", ErrMalformedRequest, hdr[0])
	}
	req := &Request{Ver: hdr[0], Cmd: hdr[1], ID: binary.LittleEndian.Uint64(hdr[2:])}
	var tlen [1]byte
	if _, err := io.ReadFull(r, tlen[:]); err != nil {
		return nil, malformed(ErrMalformedRequest, "truncated tenant length", err)
	}
	if int(tlen[0]) > MaxTenantLen {
		return nil, fmt.Errorf("%w: tenant length %d exceeds %d", ErrMalformedRequest, tlen[0], MaxTenantLen)
	}
	tenant := make([]byte, tlen[0])
	if _, err := io.ReadFull(r, tenant); err != nil {
		return nil, malformed(ErrMalformedRequest, "truncated tenant", err)
	}
	req.Tenant = string(tenant)

	switch req.Cmd {
	case CmdPing, CmdInfo, CmdKeyExport:
		return req, nil
	case CmdKeyImport, CmdAdmin:
		maxBlob := MaxAdminBytes
		if req.Cmd == CmdKeyImport {
			maxBlob = MaxKeyBlobBytes(params, cparams)
		}
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, malformed(ErrMalformedRequest, "truncated payload length", err)
		}
		blen := binary.LittleEndian.Uint32(n[:])
		if blen == 0 || int64(blen) > int64(maxBlob) {
			return nil, fmt.Errorf("%w: %s payload length %d outside (0, %d]", ErrMalformedRequest, cmdName(req.Cmd), blen, maxBlob)
		}
		req.Blob = make([]byte, blen)
		if _, err := io.ReadFull(r, req.Blob); err != nil {
			return nil, malformed(ErrMalformedRequest, "truncated payload", err)
		}
		return req, nil
	case CmdProgram:
		l := ProgramLimits()
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, malformed(ErrMalformedRequest, "truncated program length", err)
		}
		plen := binary.LittleEndian.Uint32(n[:])
		if plen == 0 || int64(plen) > int64(l.MaxEncodedBytes()) {
			return nil, fmt.Errorf("%w: program length %d outside (0, %d]", ErrMalformedRequest, plen, l.MaxEncodedBytes())
		}
		req.ProgBytes = make([]byte, plen)
		if _, err := io.ReadFull(r, req.ProgBytes); err != nil {
			return nil, malformed(ErrMalformedRequest, "truncated program", err)
		}
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, malformed(ErrMalformedRequest, "truncated input count", err)
		}
		ni := binary.LittleEndian.Uint32(n[:])
		if ni == 0 || int64(ni) > int64(l.MaxInputs) {
			return nil, fmt.Errorf("%w: %d program inputs outside (0, %d]", ErrMalformedRequest, ni, l.MaxInputs)
		}
		req.Inputs = make([]*fv.Ciphertext, ni)
		for i := range req.Inputs {
			var err error
			if req.Inputs[i], err = fv.ReadCiphertext(r, params); err != nil {
				return nil, malformed(ErrMalformedRequest, fmt.Sprintf("reading program input %d", i), err)
			}
		}
		return req, nil
	case CmdRotate:
		var g [4]byte
		if _, err := io.ReadFull(r, g[:]); err != nil {
			return nil, malformed(ErrMalformedRequest, "truncated Galois element", err)
		}
		req.G = binary.LittleEndian.Uint32(g[:])
		var err error
		if req.A, err = fv.ReadCiphertext(r, params); err != nil {
			return nil, malformed(ErrMalformedRequest, "reading operand A", err)
		}
		return req, nil
	case CmdCKKSAdd, CmdCKKSMul, CmdCKKSRotate:
		if cparams == nil {
			return nil, fmt.Errorf("%w: %s on a server without CKKS parameters", ErrMalformedRequest, cmdName(req.Cmd))
		}
		if req.Cmd == CmdCKKSRotate {
			var r4 [4]byte
			if _, err := io.ReadFull(r, r4[:]); err != nil {
				return nil, malformed(ErrMalformedRequest, "truncated rotation count", err)
			}
			req.R = int32(binary.LittleEndian.Uint32(r4[:]))
		}
		var err error
		if req.CA, err = ckks.ReadCiphertext(r, cparams); err != nil {
			return nil, malformed(ErrMalformedRequest, "reading CKKS operand A", err)
		}
		if req.Cmd != CmdCKKSRotate {
			if req.CB, err = ckks.ReadCiphertext(r, cparams); err != nil {
				return nil, malformed(ErrMalformedRequest, "reading CKKS operand B", err)
			}
		}
		return req, nil
	case CmdAdd, CmdMul:
	default:
		return nil, fmt.Errorf("%w: unknown command %d", ErrMalformedRequest, req.Cmd)
	}
	var err error
	if req.A, err = fv.ReadCiphertext(r, params); err != nil {
		return nil, malformed(ErrMalformedRequest, "reading operand A", err)
	}
	if req.B, err = fv.ReadCiphertext(r, params); err != nil {
		return nil, malformed(ErrMalformedRequest, "reading operand B", err)
	}
	return req, nil
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
	case CmdAdmin:
		return "admin"
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
//	blob      key_export key_import admin     length (4) | bytes
//
// The error half is the same bytes for all four kinds, so a peer that could
// not even decode the request (and so does not know its kind) can still
// refuse it, and one writer and one reader serve every command.

// Reply is what a Handler answers a request with: one of the four kinds
// (*Response, *ProgramResponse, *ServerInfo, Blob) or a *ServerError. It
// encodes itself as the reply to request id.
type Reply interface {
	writeReply(w io.Writer, params *fv.Params, id uint64) error
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

// writeReplyError writes the error half.
func writeReplyError(w io.Writer, id uint64, code uint8, msg string) error {
	b := make([]byte, 0, 1+8+1+4+len(msg))
	b = append(b, statusErr)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, code)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(msg)))
	_, err := w.Write(append(b, msg...))
	return err
}

// okHead starts a success reply: status and request ID, with room for the
// extra bytes of fixed fields the kind appends before its first write.
func okHead(id uint64, extra int) []byte {
	b := make([]byte, 0, 1+8+extra)
	b = append(b, statusOK)
	return binary.LittleEndian.AppendUint64(b, id)
}

// readReplyHead reads what every reply opens with. For an error reply it
// consumes the rest and returns it as serr; otherwise the kind's body
// follows. An error before the first byte (a clean EOF, a deadline) surfaces
// as is.
func readReplyHead(r io.Reader) (id uint64, serr *ServerError, err error) {
	var head [9]byte // status, id
	if n, err := io.ReadFull(r, head[:]); err != nil {
		if n == 0 {
			return 0, nil, err // the reply never started: hangup or timeout, not garbage
		}
		return 0, nil, malformed(ErrMalformedResponse, "truncated reply head", err)
	}
	id = binary.LittleEndian.Uint64(head[1:])
	switch head[0] {
	case statusOK:
		return id, nil, nil
	case statusErr:
	default:
		// A corrupted stream must not be mistaken for a success frame — the
		// bytes after an unknown status would be parsed as a body.
		return 0, nil, fmt.Errorf("%w: unknown status byte %d", ErrMalformedResponse, head[0])
	}
	var hdr [5]byte // code, message length
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, malformed(ErrMalformedResponse, "truncated error header", err)
	}
	// An empty message would make a decoded Response look like a success
	// (Err == "" is the discriminator its callers use).
	ln := binary.LittleEndian.Uint32(hdr[1:])
	if ln == 0 || ln > 1<<16 {
		return 0, nil, fmt.Errorf("%w: implausible error length %d", ErrMalformedResponse, ln)
	}
	msg := make([]byte, ln)
	if _, err := io.ReadFull(r, msg); err != nil {
		return 0, nil, malformed(ErrMalformedResponse, "truncated error message", err)
	}
	return id, &ServerError{Code: hdr[0], Msg: string(msg)}, nil
}

// readReply decodes the reply to a cmd request: the shared head, then the
// body of the kind cmd answers in. A server-reported failure comes back as
// the *ServerError it is. cparams is needed for the CKKS commands only.
func readReply(r io.Reader, params *fv.Params, cparams *ckks.Params, cmd uint8) (uint64, Reply, error) {
	id, serr, err := readReplyHead(r)
	if err != nil {
		return 0, nil, err
	}
	if serr != nil {
		return id, serr, nil
	}
	var (
		rep  Reply
		body []byte
	)
	switch cmd {
	case CmdProgram:
		rep, err = readProgramBody(r, params, id)
	case CmdInfo:
		if body, err = readLenBody(r, maxInfoBytes); err == nil {
			info := new(ServerInfo)
			if err = json.Unmarshal(body, info); err != nil {
				err = fmt.Errorf("%w: decoding info: %w", ErrMalformedResponse, err)
			}
			rep = info
		}
	case CmdKeyExport:
		body, err = readLenBody(r, MaxKeyBlobBytes(params, cparams))
		rep = Blob(body)
	case CmdKeyImport, CmdAdmin:
		body, err = readLenBody(r, MaxAdminBytes)
		rep = Blob(body)
	default:
		rep, err = readOpBody(r, params, cparams, id, isCKKSCmd(cmd))
	}
	if err != nil {
		return 0, nil, err
	}
	return id, rep, nil
}

// Response is the op-kind reply: the result ciphertext and the simulated
// hardware timing.
type Response struct {
	Err  string
	Code uint8 // error code (CodeApp, CodeUnavailable, ...)
	// Ver is the protocol version of the request being answered (always
	// ProtoV2; writers ignore it); ID echoes the request ID.
	Ver          uint8
	ID           uint64
	Result       *fv.Ciphertext
	CKKSResult   *ckks.Ciphertext // result of a CKKS command (Result is nil)
	ComputeNanos uint64           // simulated co-processor latency
	Worker       uint32           // which application core / co-processor served it
}

// WriteResponse serializes a response.
func WriteResponse(w io.Writer, params *fv.Params, resp *Response) error {
	return resp.writeReply(w, params, resp.ID)
}

func (resp *Response) writeReply(w io.Writer, params *fv.Params, id uint64) error {
	if resp.Err != "" {
		return writeReplyError(w, id, resp.Code, resp.Err)
	}
	hdr := okHead(id, 8+4)
	hdr = binary.LittleEndian.AppendUint64(hdr, resp.ComputeNanos)
	hdr = binary.LittleEndian.AppendUint32(hdr, resp.Worker)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if resp.CKKSResult != nil {
		return resp.CKKSResult.Write(w)
	}
	return resp.Result.WriteTo(w, params)
}

func readOpBody(r io.Reader, params *fv.Params, cparams *ckks.Params, id uint64, isCKKS bool) (*Response, error) {
	var meta [12]byte // compute nanos, worker
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, malformed(ErrMalformedResponse, "truncated response header", err)
	}
	resp := &Response{
		Ver:          ProtoV2,
		ID:           id,
		ComputeNanos: binary.LittleEndian.Uint64(meta[:8]),
		Worker:       binary.LittleEndian.Uint32(meta[8:]),
	}
	var err error
	if isCKKS {
		resp.CKKSResult, err = ckks.ReadCiphertext(r, cparams)
	} else {
		resp.Result, err = fv.ReadCiphertext(r, params)
	}
	if err != nil {
		return nil, malformed(ErrMalformedResponse, "reading result", err)
	}
	return resp, nil
}

// ReadResponseV deserializes the response to a request of protocol version
// ver (always ProtoV2; the response itself carries no version). A
// server-reported failure decodes into Err and Code.
func ReadResponseV(r io.Reader, params *fv.Params, ver uint8) (*Response, error) {
	return readResponse(r, params, nil, CmdAdd, ver)
}

// ReadCKKSResponseV deserializes the response to a CKKS command: the same
// envelope, with the result decoding as a CKKS ciphertext under cparams.
func ReadCKKSResponseV(r io.Reader, cparams *ckks.Params, ver uint8) (*Response, error) {
	return readResponse(r, nil, cparams, CmdCKKSAdd, ver)
}

func readResponse(r io.Reader, params *fv.Params, cparams *ckks.Params, cmd, ver uint8) (*Response, error) {
	id, rep, err := readReply(r, params, cparams, cmd)
	if err != nil {
		return nil, err
	}
	resp, ok := rep.(*Response)
	if !ok {
		se := rep.(*ServerError)
		resp = &Response{ID: id, Err: se.Msg, Code: se.Code}
	}
	resp.Ver = ver
	return resp, nil
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

func (info *ServerInfo) writeReply(w io.Writer, _ *fv.Params, id uint64) error {
	body, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return Blob(body).writeReply(w, nil, id)
}

// Blob is the blob-kind reply: an opaque length-prefixed body — a tenant key
// blob (CmdKeyExport) or a small JSON acknowledgement (CmdKeyImport,
// CmdAdmin).
type Blob []byte

func (b Blob) writeReply(w io.Writer, _ *fv.Params, id uint64) error {
	hdr := binary.LittleEndian.AppendUint32(okHead(id, 4), uint32(len(b)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readLenBody reads the length-prefixed body the info and blob kinds share,
// refusing a length beyond maxLen before allocating.
func readLenBody(r io.Reader, maxLen int) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, malformed(ErrMalformedResponse, "truncated body length", err)
	}
	ln := binary.LittleEndian.Uint32(n[:])
	if int64(ln) > int64(maxLen) {
		return nil, fmt.Errorf("%w: body length %d exceeds %d", ErrMalformedResponse, ln, maxLen)
	}
	body := make([]byte, ln)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, malformed(ErrMalformedResponse, "truncated body", err)
	}
	return body, nil
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

// WriteProgramResponse serializes a CmdProgram reply.
func WriteProgramResponse(w io.Writer, params *fv.Params, resp *ProgramResponse) error {
	return resp.writeReply(w, params, resp.ID)
}

func (resp *ProgramResponse) writeReply(w io.Writer, params *fv.Params, id uint64) error {
	if resp.Err != "" {
		return writeReplyError(w, id, resp.Code, resp.Err)
	}
	if len(resp.Outputs) == 0 || len(resp.Outputs) > ProgramLimits().MaxOutputs {
		return fmt.Errorf("cloud: %d program outputs outside (0, %d]", len(resp.Outputs), ProgramLimits().MaxOutputs)
	}
	hdr := okHead(id, 8+8+4+4+4)
	hdr = binary.LittleEndian.AppendUint64(hdr, resp.MakespanNanos)
	hdr = binary.LittleEndian.AppendUint64(hdr, resp.SerialNanos)
	hdr = binary.LittleEndian.AppendUint32(hdr, resp.KeyLoads)
	hdr = binary.LittleEndian.AppendUint32(hdr, resp.Nodes)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(resp.Outputs)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, ct := range resp.Outputs {
		if err := ct.WriteTo(w, params); err != nil {
			return err
		}
	}
	return nil
}

// ReadProgramResponse deserializes a CmdProgram reply. A server-reported
// failure decodes into Err and Code.
func ReadProgramResponse(r io.Reader, params *fv.Params) (*ProgramResponse, error) {
	id, rep, err := readReply(r, params, nil, CmdProgram)
	if err != nil {
		return nil, err
	}
	resp, ok := rep.(*ProgramResponse)
	if !ok {
		se := rep.(*ServerError)
		resp = &ProgramResponse{ID: id, Err: se.Msg, Code: se.Code}
	}
	return resp, nil
}

func readProgramBody(r io.Reader, params *fv.Params, id uint64) (*ProgramResponse, error) {
	var hdr [28]byte // makespan, serial, key loads, nodes, output count
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, malformed(ErrMalformedResponse, "truncated program response header", err)
	}
	resp := &ProgramResponse{
		ID:            id,
		MakespanNanos: binary.LittleEndian.Uint64(hdr[:8]),
		SerialNanos:   binary.LittleEndian.Uint64(hdr[8:16]),
		KeyLoads:      binary.LittleEndian.Uint32(hdr[16:20]),
		Nodes:         binary.LittleEndian.Uint32(hdr[20:24]),
	}
	nOut := binary.LittleEndian.Uint32(hdr[24:28])
	if nOut == 0 || int64(nOut) > int64(ProgramLimits().MaxOutputs) {
		return nil, fmt.Errorf("%w: %d program outputs outside (0, %d]", ErrMalformedResponse, nOut, ProgramLimits().MaxOutputs)
	}
	resp.Outputs = make([]*fv.Ciphertext, nOut)
	for i := range resp.Outputs {
		ct, err := fv.ReadCiphertext(r, params)
		if err != nil {
			return nil, malformed(ErrMalformedResponse, fmt.Sprintf("reading program output %d", i), err)
		}
		resp.Outputs[i] = ct
	}
	return resp, nil
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

func (e *ServerError) writeReply(w io.Writer, _ *fv.Params, id uint64) error {
	return writeReplyError(w, id, e.Code, e.Msg)
}

// Retryable reports whether the failure was node-local — unavailability
// (overload, shutdown), a detected integrity fault, or a per-tenant quota
// refusal — rather than a deterministic application error, so an idempotent
// request may be retried on a replica.
func (e *ServerError) Retryable() bool {
	return e.Code == CodeUnavailable || e.Code == CodeIntegrity || e.Code == CodeQuota
}
