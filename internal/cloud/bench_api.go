// Bench-only API (DESIGN §4l): only the frozen bench/ may use these names.

package cloud

import (
	"bytes"
	"io"

	"repro/internal/ckks"
	"repro/internal/fv"
)

// ProtoV2 is ProtoVersion under the name bench/ compiles against.
const ProtoV2 = ProtoVersion

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

// ReadRequestCKKS deserializes a request, reading at most the largest one
// params admits; CKKS bodies decode under cparams. The request owns its memory.
func ReadRequestCKKS(r io.Reader, params *fv.Params, cparams *ckks.Params) (*Request, error) {
	cd := newCodec(params, cparams)
	f := Frame{buf: getBuf(6 * len(cd.bfv.Mods) * cd.bfv.N * 4)} // two three-element BFV operands
	defer f.Release()
	c := cursor{r: r, buf: f.buf.b, left: cd.maxRequest}
	err := f.read(&c, &cd)
	f.buf.b = c.buf[:0] // the cursor may have moved it
	if err != nil {
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
	return writeReply(w, resp, params, resp.ID)
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
	id, rep, err := readReply(r, cd, cmd)
	if se, ok := rep.(*ServerError); ok {
		return &Response{ID: id, Err: se.Msg, Code: se.Code}, nil
	}
	resp, _ := rep.(*Response)
	return resp, err
}

// WriteProgramResponse serializes a CmdProgram reply.
func WriteProgramResponse(w io.Writer, params *fv.Params, resp *ProgramResponse) error {
	return writeReply(w, resp, params, resp.ID)
}

// ReadProgramResponse deserializes a CmdProgram reply; a server-reported
// failure sets Err and Code.
func ReadProgramResponse(r io.Reader, params *fv.Params) (*ProgramResponse, error) {
	cd := newCodec(params, nil)
	id, rep, err := readReply(r, &cd, CmdProgram)
	if se, ok := rep.(*ServerError); ok {
		return &ProgramResponse{ID: id, Err: se.Msg, Code: se.Code}, nil
	}
	resp, _ := rep.(*ProgramResponse)
	return resp, err
}

// readReply frames and materializes the reply to a cmd request under cd, a
// server-reported failure as the *ServerError it is.
func readReply(r io.Reader, cd *codec, cmd uint8) (uint64, Reply, error) {
	hint := 64 // room for a two-element result, the usual reply
	if l, err := cd.layout(cmd); err == nil {
		hint += 2 * len(l.Mods) * l.N * 4
	}
	raw, err := readRawReply(r, hint, cd, cmd)
	if err != nil {
		return 0, nil, err
	}
	defer raw.Release()
	rep, err := raw.Reply()
	return raw.ID(), rep, err
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
