// Bench-only API (DESIGN §4l): only the frozen bench/ may use these names.

package cloud

import (
	"bytes"
	"io"
	"math"

	"repro/internal/ckks"
	"repro/internal/fv"
)

// ProtoV2 is ProtoVersion under the name bench/ compiles against.
const ProtoV2 = ProtoVersion

// MuxClient is Client under the name bench/ compiles against.
type MuxClient = Client

// DialMux is Dial.
func DialMux(addr string, params *fv.Params) (*Client, error) { return Dial(addr, params) }

// WriteRequest serializes a request under params alone, as one Write.
func WriteRequest(w io.Writer, params *fv.Params, req *Request) error {
	cd := newCodec(params, nil)
	f, err := cd.encode(req)
	if err != nil {
		return err
	}
	defer f.Release()
	_, err = w.Write(f.b)
	return err
}

// ReadRequest is ReadRequestCKKS without a CKKS parameter set: CKKS commands
// are rejected as malformed.
func ReadRequest(r io.Reader, params *fv.Params) (*Request, error) {
	return ReadRequestCKKS(r, params, nil)
}

// ReadRequestCKKS deserializes the one request r holds to its end, reading
// at most the largest one params admits; CKKS bodies decode under cparams.
// The request owns its memory.
func ReadRequestCKKS(r io.Reader, params *fv.Params, cparams *ckks.Params) (*Request, error) {
	cd := newCodec(params, cparams)
	buf, err := readAll(r, 6*len(cd.bfv.Mods)*cd.bfv.N*4, cd.maxRequest) // two three-element BFV operands
	if err != nil {
		return nil, err
	}
	f := Frame{buf: buf}
	defer f.Release()
	if err := f.read(&cursor{buf: buf.b, left: cd.maxRequest}, &cd); err != nil {
		return nil, err
	}
	req, err := f.Request()
	if err != nil {
		return nil, err
	}
	req.Blob, req.ProgBytes = bytes.Clone(req.Blob), bytes.Clone(req.ProgBytes)
	return req, nil
}

// WriteResponse serializes a response.
func WriteResponse(w io.Writer, params *fv.Params, resp *Response) error {
	return writeReply(w, resp, params)
}

// ReadResponseV deserializes an op response and stamps ver into its Ver (the
// wire carries none).
func ReadResponseV(r io.Reader, params *fv.Params, ver uint8) (*Response, error) {
	cd := newCodec(params, nil)
	resp, err := readResponse(r, &cd, CmdAdd)
	if resp != nil {
		resp.Ver = ver
	}
	return resp, err
}

// ReadCKKSResponseV is ReadResponseV for a CKKS command, the result decoding
// as a CKKS ciphertext under cparams. It leaves Ver unset.
func ReadCKKSResponseV(r io.Reader, cparams *ckks.Params, _ uint8) (*Response, error) {
	return readResponse(r, &codec{ckks: cparams.Wire()}, CmdCKKSAdd)
}

// readResponse reads an op reply; a server-reported failure sets Err and Code.
func readResponse(r io.Reader, cd *codec, cmd uint8) (*Response, error) {
	rep, err := readReply(r, cd, cmd)
	if se, ok := rep.(*ServerError); ok {
		return &Response{Err: se.Msg, Code: se.Code}, nil
	}
	resp, _ := rep.(*Response)
	return resp, err
}

// WriteProgramResponse serializes a CmdProgram reply.
func WriteProgramResponse(w io.Writer, params *fv.Params, resp *ProgramResponse) error {
	return writeReply(w, resp, params)
}

// ReadProgramResponse deserializes a CmdProgram reply; a server-reported
// failure sets Err and Code.
func ReadProgramResponse(r io.Reader, params *fv.Params) (*ProgramResponse, error) {
	cd := newCodec(params, nil)
	rep, err := readReply(r, &cd, CmdProgram)
	if se, ok := rep.(*ServerError); ok {
		return &ProgramResponse{Err: se.Msg, Code: se.Code}, nil
	}
	resp, _ := rep.(*ProgramResponse)
	return resp, err
}

// readReply frames and materializes the one reply to a cmd request r holds
// to its end, under cd; a server-reported failure is the *ServerError it is.
func readReply(r io.Reader, cd *codec, cmd uint8) (Reply, error) {
	hint := 64 // room for a two-element result, the usual reply
	if l, err := cd.layout(cmd); err == nil {
		hint += 2 * len(l.Mods) * l.N * 4
	}
	buf, err := readAll(r, hint, math.MaxInt)
	if err != nil {
		return nil, err
	}
	raw := &RawReply{buf: buf}
	defer raw.Release()
	if err := raw.read(&cursor{buf: buf.b, left: math.MaxInt}, cd, cmd); err != nil {
		return nil, err
	}
	return raw.Reply()
}

// readAll reads r to its end, or its first limit bytes, into a pooled buffer
// with room for hint bytes.
func readAll(r io.Reader, hint, limit int) (*buffer, error) {
	buf := getBuf(hint)
	for len(buf.b) < limit {
		if len(buf.b) == cap(buf.b) {
			grown := getBuf(2 * cap(buf.b))
			grown.b = append(grown.b, buf.b...)
			buf.release()
			buf = grown
		}
		n, err := r.Read(buf.b[len(buf.b):min(cap(buf.b), limit)])
		buf.b = buf.b[:len(buf.b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			buf.release()
			return nil, err
		}
	}
	return buf, nil
}

// writeReply writes rep's encoding, as one Write.
func writeReply(w io.Writer, rep Reply, params *fv.Params) error {
	buf, err := rep.encode(params)
	if err != nil {
		return err
	}
	defer buf.release()
	_, err = w.Write(buf.b)
	return err
}

// WriteMuxFrame frames payload under (typ, id) with both checksums and writes
// it.
func WriteMuxFrame(w io.Writer, typ uint8, id uint64, payload []byte) error {
	return writeMuxFrame(w, typ, id, payload, muxChecksum(payload))
}

// DecodeMuxFrame reads one frame, bounding the payload at maxPayload bytes,
// under readMuxFrame's error contract; the frame is nil unless a payload was
// read.
func DecodeMuxFrame(r io.Reader, maxPayload int) (*MuxFrame, error) {
	f, _, err := readMuxFrame(r, func() int { return maxPayload }, false)
	if f.Payload == nil {
		return nil, err
	}
	return &f, err
}
