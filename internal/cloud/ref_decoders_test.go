package cloud

// The decoders of the revision before framing and materialization were
// split, kept verbatim as the reference FuzzFrameRequest and FuzzFrameReply
// compare the split codec against: they read a stream field by field and
// unpack every ciphertext row by row into newly allocated polynomials. The two
// ciphertext readers at the bottom are the schemes' own pre-rlwe-codec
// ReadCiphertext functions, copied so that the reference never calls the code
// under test. The one edit since: like the codec under test, they no longer
// stamp the bench-only Ver field of what they decode.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/ckks"
	"repro/internal/fv"
)

func refReadRequest(r io.Reader, params *fv.Params, cparams *ckks.Params) (*Request, error) {
	limits := codecFor(params, cparams)
	r = io.LimitReader(r, int64(limits.maxRequest))
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
	if hdr[0] != ProtoVersion {
		return nil, fmt.Errorf("%w: unsupported protocol version %d", ErrMalformedRequest, hdr[0])
	}
	req := &Request{Cmd: hdr[1], ID: binary.LittleEndian.Uint64(hdr[2:])}
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
	case CmdKeyImport:
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, malformed(ErrMalformedRequest, "truncated payload length", err)
		}
		blen := binary.LittleEndian.Uint32(n[:])
		if blen == 0 || int64(blen) > int64(limits.maxKeyBlob) {
			return nil, fmt.Errorf("%w: %s payload length %d outside (0, %d]", ErrMalformedRequest, cmdName(req.Cmd), blen, limits.maxKeyBlob)
		}
		var err error
		if req.Blob, err = refReadN(r, int(blen)); err != nil {
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
			if req.Inputs[i], err = refReadCiphertext(r, params); err != nil {
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
		if req.A, err = refReadCiphertext(r, params); err != nil {
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
		if req.CA, err = refReadCKKSCiphertext(r, cparams); err != nil {
			return nil, malformed(ErrMalformedRequest, "reading CKKS operand A", err)
		}
		if req.Cmd != CmdCKKSRotate {
			if req.CB, err = refReadCKKSCiphertext(r, cparams); err != nil {
				return nil, malformed(ErrMalformedRequest, "reading CKKS operand B", err)
			}
		}
		return req, nil
	case CmdAdd, CmdMul:
	default:
		return nil, fmt.Errorf("%w: unknown command %d", ErrMalformedRequest, req.Cmd)
	}
	var err error
	if req.A, err = refReadCiphertext(r, params); err != nil {
		return nil, malformed(ErrMalformedRequest, "reading operand A", err)
	}
	if req.B, err = refReadCiphertext(r, params); err != nil {
		return nil, malformed(ErrMalformedRequest, "reading operand B", err)
	}
	return req, nil
}

func refReadReplyHead(r io.Reader) (id uint64, serr *ServerError, err error) {
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
func refReadReply(r io.Reader, params *fv.Params, cparams *ckks.Params, cmd uint8) (uint64, Reply, error) {
	id, serr, err := refReadReplyHead(r)
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
		rep, err = refReadProgramBody(r, params, id)
	case CmdInfo:
		if body, err = refReadLenBody(r, maxInfoBytes); err == nil {
			info := new(ServerInfo)
			if err = json.Unmarshal(body, info); err != nil {
				err = fmt.Errorf("%w: decoding info: %w", ErrMalformedResponse, err)
			}
			rep = info
		}
	case CmdKeyExport:
		body, err = refReadLenBody(r, codecFor(params, cparams).maxKeyBlob)
		rep = Blob(body)
	case CmdKeyImport:
		body, err = refReadLenBody(r, maxAckBytes)
		rep = Blob(body)
	default:
		rep, err = refReadOpBody(r, params, cparams, id, IsCKKSCmd(cmd))
	}
	if err != nil {
		return 0, nil, err
	}
	return id, rep, nil
}

func refReadOpBody(r io.Reader, params *fv.Params, cparams *ckks.Params, id uint64, isCKKS bool) (*Response, error) {
	var meta [12]byte // compute nanos, worker
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, malformed(ErrMalformedResponse, "truncated response header", err)
	}
	resp := &Response{
		ID:           id,
		ComputeNanos: binary.LittleEndian.Uint64(meta[:8]),
		Worker:       binary.LittleEndian.Uint32(meta[8:]),
	}
	var err error
	if isCKKS {
		resp.CKKSResult, err = refReadCKKSCiphertext(r, cparams)
	} else {
		resp.Result, err = refReadCiphertext(r, params)
	}
	if err != nil {
		return nil, malformed(ErrMalformedResponse, "reading result", err)
	}
	return resp, nil
}

func refReadLenBody(r io.Reader, maxLen int) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, malformed(ErrMalformedResponse, "truncated body length", err)
	}
	ln := binary.LittleEndian.Uint32(n[:])
	if int64(ln) > int64(maxLen) {
		return nil, fmt.Errorf("%w: body length %d exceeds %d", ErrMalformedResponse, ln, maxLen)
	}
	body, err := refReadN(r, int(ln))
	if err != nil {
		return nil, malformed(ErrMalformedResponse, "truncated body", err)
	}
	return body, nil
}

// refReadN is io.ReadFull into a new n-byte slice, except that the slice
// grows with what arrives: a key-blob length is bounded by hundreds of
// megabytes, and the fuzz seeds include one that claims the bound and stops.
func refReadN(r io.Reader, n int) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(b) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

func refReadProgramBody(r io.Reader, params *fv.Params, id uint64) (*ProgramResponse, error) {
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
		ct, err := refReadCiphertext(r, params)
		if err != nil {
			return nil, malformed(ErrMalformedResponse, fmt.Sprintf("reading program output %d", i), err)
		}
		resp.Outputs[i] = ct
	}
	return resp, nil
}

func refReadCiphertext(r io.Reader, params *fv.Params) (*fv.Ciphertext, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	els := int(binary.LittleEndian.Uint32(hdr[:4]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n != params.N() {
		return nil, fmt.Errorf("fv: ciphertext degree %d does not match params degree %d", n, params.N())
	}
	if els < 1 || els > 3 {
		return nil, fmt.Errorf("fv: implausible ciphertext element count %d", els)
	}
	ct := fv.NewCiphertext(params, els)
	buf := make([]byte, n*4)
	for e := 0; e < els; e++ {
		for ri, m := range params.QMods {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			row := ct.Els[e].Rows[ri]
			for i := range row.Coeffs {
				v := uint64(binary.LittleEndian.Uint32(buf[i*4:]))
				if v >= m.Q {
					return nil, fmt.Errorf("fv: residue %d out of range for modulus %d", v, m.Q)
				}
				row.Coeffs[i] = v
			}
		}
	}
	return ct, nil
}

func refReadCKKSCiphertext(r io.Reader, params *ckks.Params) (*ckks.Ciphertext, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	els := int(binary.LittleEndian.Uint32(hdr[0:]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	level := int(binary.LittleEndian.Uint32(hdr[8:]))
	scale := math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:]))
	if n != params.N() {
		return nil, fmt.Errorf("ckks: ciphertext ring degree %d, params %d", n, params.N())
	}
	if els < 1 || els > 3 {
		return nil, fmt.Errorf("ckks: implausible ciphertext with %d elements", els)
	}
	if level < 0 || level > params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d outside chain (L=%d)", level, params.MaxLevel())
	}
	// The only intended divergence from the pre-split reader, which ignored
	// these four bytes: a non-zero padding word decoded to the same ciphertext
	// as a zero one and re-encoded differently.
	if pad := binary.LittleEndian.Uint32(hdr[12:]); pad != 0 {
		return nil, fmt.Errorf("ckks: non-zero header padding %#x", pad)
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("ckks: implausible scale %g", scale)
	}
	ct := ckks.NewCiphertext(params, els-1, level)
	ct.Scale = scale
	buf := make([]byte, n*4)
	for _, el := range ct.Els {
		for ri := range el.Rows {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			if bad, ok := el.Rows[ri].UnpackWords(buf); !ok {
				return nil, fmt.Errorf("ckks: residue %d out of range for modulus %d", bad, params.QMods[ri].Q)
			}
		}
	}
	return ct, nil
}
