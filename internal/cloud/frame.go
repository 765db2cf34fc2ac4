package cloud

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/poly"
	"repro/internal/rlwe"
)

// Framing and materialization: two halves of the wire codec, one body walker
// per direction (Frame.walk, RawReply.walk).
//
//   - Framing turns a mux payload, in memory, into a Frame or a RawReply:
//     the header fields, plus the whole message as one contiguous byte slice
//     whose length is derived from the command and each ciphertext's header
//     (rlwe.Layout.Len under the codec's layout for the command), bounded by
//     the limits of the codec it is framed under. It reads a ciphertext's
//     shape, never its residues, and allocates nothing ciphertext-sized.
//   - Materialization turns those bytes into *fv.Ciphertext and
//     *ckks.Ciphertext values (Frame.Request, RawReply.Reply) and back
//     (codec.encode, Reply.encode).
//
// A residue is range-checked once in each process that receives it, by its
// consumer: the data node and the client as they decode it; the routing
// tier, which forwards a frame's bytes and relays the framed reply, each
// under its sender's checksum, by Frame.Check and RawReply.Check. It stays a
// trust boundary (a node never sees a residue the router let through
// unchecked, a client never gets one a damaged hop produced) without ever
// unpacking a coefficient.
//
// Ownership: a Frame and a RawReply own their bytes until released. The
// front-end releases a request's frame — the operands materialized from it
// and the result ciphertext an op was read back into, all drawn from one
// pool — only once the reply has been encoded, because the reply references
// them (an op's result; a program output that is one of its inputs), and
// before the reply's bytes are written, so they are back in the pool by the
// time the peer has the answer. A reply's encoding is a pooled buffer
// released after the write;
// RawReply.encode hands its own buffer over instead of copying.

// PoisonReleased is a test hook: when set (before any traffic, from a
// TestMain), every buffer and ciphertext going back to a pool is first
// overwritten with 0xFF bytes — each 32-bit word then exceeds every modulus —
// so a use after release fails a range check or a bit-for-bit comparison
// instead of passing by luck.
var PoisonReleased bool

// buffer is one pooled byte buffer of the wire path.
type buffer struct{ b []byte }

// minBufClass is the smallest pooled capacity, 1 KiB: pings, errors, hellos.
const minBufClass = 10

// bufPools holds free buffers by capacity class: class c holds buffers of
// capacity at least 1<<c, so a 393 KB reply never draws (and then discards)
// the buffer a 786 KB request left behind, or the reverse.
var bufPools [bits.UintSize]sync.Pool

// getBuf returns an empty buffer with room for n bytes.
func getBuf(n int) *buffer {
	c := minBufClass
	if n > 1<<minBufClass {
		c = bits.Len(uint(n - 1))
	}
	if v := bufPools[c].Get(); v != nil {
		return v.(*buffer)
	}
	return &buffer{b: make([]byte, 0, 1<<c)}
}

// release gives the buffer back. The caller must hold no slice of it.
func (buf *buffer) release() {
	if buf == nil || cap(buf.b) < 1<<minBufClass {
		return
	}
	if PoisonReleased {
		poison(buf.b[:cap(buf.b)])
	}
	buf.b = buf.b[:0]
	bufPools[bits.Len(uint(cap(buf.b)))-1].Put(buf)
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}

// ctPool recycles the ciphertexts a data node materializes operands into and
// reads op results back into, one free list per scheme. A nil *ctPool
// allocates and never recycles (clients, and frames decoded outside a
// front-end).
type ctPool struct{ fv, ckks sync.Pool }

func (cp *ctPool) getFV() *fv.Ciphertext {
	if cp != nil {
		if v := cp.fv.Get(); v != nil {
			return v.(*fv.Ciphertext)
		}
	}
	return new(fv.Ciphertext)
}

func (cp *ctPool) getCKKS() *ckks.Ciphertext {
	if cp != nil {
		if v := cp.ckks.Get(); v != nil {
			return v.(*ckks.Ciphertext)
		}
	}
	return new(ckks.Ciphertext)
}

func (cp *ctPool) putFV(ct *fv.Ciphertext) {
	if cp != nil && ct != nil {
		poisonRows(ct.Els)
		cp.fv.Put(ct)
	}
}

func (cp *ctPool) putCKKS(ct *ckks.Ciphertext) {
	if cp != nil && ct != nil {
		poisonRows(ct.Els)
		cp.ckks.Put(ct)
	}
}

// poisonRows is PoisonReleased for a ciphertext going back to its pool.
func poisonRows(els []poly.RNSPoly) {
	if !PoisonReleased {
		return
	}
	for _, el := range els {
		for _, row := range el.Rows {
			for i := range row.Coeffs {
				row.Coeffs[i] = math.MaxUint32
			}
		}
	}
}

// cursor walks the bytes of one message, a mux payload already in memory,
// handing out at most left more bytes. A walk's first refusal, wrapped in
// the direction's sentinel bad, sticks in err: later reads yield nothing.
type cursor struct {
	buf      []byte
	off      int // bytes of buf consumed so far
	left     int
	check    bool // range-check the residues of the ciphertexts walked over
	bad, err error
}

// next returns the following n bytes, with io.ReadFull's error contract:
// io.EOF when none were available, io.ErrUnexpectedEOF when only some were.
func (c *cursor) next(n int) ([]byte, error) {
	end := c.off + n
	if n > c.left || end > len(c.buf) && c.off < len(c.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	if end > len(c.buf) {
		return nil, io.EOF
	}
	b := c.buf[c.off:end]
	c.off, c.left = end, c.left-n
	return b, nil
}

// field returns the following n bytes, the field what; a short read refuses
// the walk as a truncated what.
func (c *cursor) field(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	b, err := c.next(n)
	if err != nil {
		c.err = malformed(c.bad, "truncated "+what, err)
	}
	return b
}

// word is field for a little-endian 32-bit word, 0 once the walk is refused.
func (c *cursor) word(what string) uint32 {
	if b := c.field(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// ciphertext consumes one ciphertext of layout l — its header, then the
// length the header gives — and decodes its residues into dst, an
// *fv.Ciphertext or a *ckks.Ciphertext, or range-checks them in place under
// c.check, or reads none of them. A refused walk reads nothing more.
func (c *cursor) ciphertext(l rlwe.Layout, dst any) error {
	if c.err != nil {
		return nil
	}
	start, hl := c.off, rlwe.HeaderLen(l.Leveled)
	hdr, err := c.next(hl)
	if err != nil {
		return err
	}
	size, err := l.Len(hdr)
	if err != nil {
		return err
	}
	if _, err := c.next(size - hl); err != nil {
		return err
	}
	b := c.buf[start:c.off]
	switch ct := dst.(type) {
	case *fv.Ciphertext:
		_, _, err = l.Decode(b, &ct.Els)
	case *ckks.Ciphertext:
		_, ct.Scale, err = l.Decode(b, &ct.Els)
	default:
		if c.check {
			_, err = l.Check(b)
		}
	}
	return err
}

// requestHeadLen is the fixed part of a request header: magic, version,
// command, tenant length.
const requestHeadLen = 4 + 1 + 1 + 1

// codec is what the wire reads of the parameter sets one side speaks: the BFV
// layout (and the set itself, which encodes this side's BFV operands), the
// CKKS layout when CKKS is spoken, and the byte limits derived from them once.
// A front-end frames requests under its own codec; a frame carries the codec
// it was framed or encoded under, and its reply is framed under the same one,
// so a connection that only carries frames needs no parameter set of its own.
type codec struct {
	params    *fv.Params
	bfv, ckks rlwe.Layout // ckks.Mods is nil when CKKS is not spoken
	// maxRequest bounds one request, maxMuxPayload one mux payload either way,
	// maxKeyBlob one tenant key blob.
	maxRequest, maxMuxPayload, maxKeyBlob int
}

// keyHeaderBytes is what the key-blob bound allows for the JSON parameter
// header of one key container; an honest header of either scheme is about
// 100 bytes.
const keyHeaderBytes = 256

// newCodec derives the codec of a side speaking params and, when non-nil,
// cparams. The bounds are generous by construction — their job is stopping
// a hostile length field before anything is reserved, not accounting bytes.
func newCodec(params *fv.Params, cparams *ckks.Params) codec {
	cd := codec{params: params, bfv: params.Wire()}
	// A key blob is a six-byte head and up to 65 keys per scheme (a relin
	// key and 64 Galois keys). Each key is a section — kind byte and length
	// word — around its checksummed container: magic, a length-prefixed JSON
	// header of the parameter set, up to four meta words, the gadget digits
	// as pairs of polynomials at 4 bytes a coefficient (keyio.WriteRows) and
	// the 8-byte trailer. A BFV key has one digit per q prime, each over the
	// q basis; a CKKS key one per chain prime, each over the chain and p*.
	keys := func(digits, rows, n int) int { return 65 * (5 + 8 + keyHeaderBytes + 16 + digits*2*rows*n*4 + 8) }
	cd.maxKeyBlob = 6 + keys(len(cd.bfv.Mods), len(cd.bfv.Mods), cd.bfv.N)
	if cparams != nil {
		cd.ckks = cparams.Wire()
		cd.maxKeyBlob += keys(len(cd.ckks.Mods), len(cd.ckks.Mods)+1, cd.ckks.N)
	}
	// A request is the header and a rotation argument or a length, then at
	// most two operands of three elements at the top of their chain, a
	// program and its inputs, or a key blob. Every reply is smaller than its
	// request's bound, and an info reply is capped.
	head := requestHeadLen + MaxTenantLen + 4
	ct := func(l rlwe.Layout) int { return rlwe.HeaderLen(l.Leveled) + 3*len(l.Mods)*l.N*4 }
	pl := ProgramLimits()
	program := head + pl.MaxEncodedBytes() + 4 + pl.MaxInputs*ct(cd.bfv) // and every BFV op
	ckksOp := head + 2*ct(cd.ckks)
	cd.maxRequest = max(program, ckksOp, head+cd.maxKeyBlob)
	// A mux payload carries any request, or a reply, with a reply header's
	// margin.
	cd.maxMuxPayload = max(cd.maxRequest, maxInfoBytes) + 64
	return cd
}

// EnableCKKS arms the connection for the approximate-arithmetic commands: its
// own CKKS requests go out, and their replies are framed, under p, which must
// match the server's (check ServerInfo.CKKS via Info first). Call it before
// the connection's first exchange. Without it a CKKS request is refused before
// it touches the wire, and the session stays usable.
func (cd *codec) EnableCKKS(p *ckks.Params) { *cd = newCodec(cd.params, p) }

// layout returns the layout cmd's ciphertexts are framed under; an unknown
// command, or a CKKS command under a codec without a CKKS layout, is
// malformed.
func (cd *codec) layout(cmd uint8) (rlwe.Layout, error) {
	row, err := commandOf(cmd)
	if err != nil || !row.op.CKKS() {
		return cd.bfv, err
	}
	if cd.ckks.Mods == nil {
		return rlwe.Layout{}, fmt.Errorf("%w: %s without a CKKS parameter set", ErrMalformedRequest, cmdName(cmd))
	}
	return cd.ckks, nil
}

// Frame is a request as framed off the wire (or encoded by a client): its
// header fields, and the complete request — magic through the last body
// byte — as framed bytes with their checksum. Handlers receive frames; one
// that only forwards checks them (Check) and never looks further.
type Frame struct {
	Cmd uint8
	// ID is the request ID of the mux frame the request arrived in; the reply
	// goes out under it.
	ID     uint64
	Tenant string

	b     []byte  // the encoded request
	sum   uint32  // its sender's CRC-32C of b, which every hop sends b under
	body  int     // offset of the command's body in b
	buf   *buffer // pooled backing of b
	codec *codec  // what the frame was framed or encoded under

	pool *ctPool  // where Request draws operand ciphertexts from
	req  *Request // what Request materialized, for release
	// dst and cdst are the result ciphertexts a handler drew from the pool
	// (Frame.result), for release.
	dst  *fv.Ciphertext
	cdst *ckks.Ciphertext
}

// read frames one request from c under cd, by shape. Errors: io.EOF on an
// empty payload, and ErrMalformedRequest for everything else.
func (f *Frame) read(c *cursor, cd *codec) error {
	magic, err := c.next(4)
	if err != nil {
		return err
	}
	if [4]byte(magic) != protocolMagicV2 {
		return fmt.Errorf("%w: bad protocol magic %q", ErrMalformedRequest, magic)
	}
	c.bad = ErrMalformedRequest
	hdr := c.field(2, "v2 header") // version, command
	if c.err == nil && hdr[0] != ProtoVersion {
		return fmt.Errorf("%w: unsupported protocol version %d", ErrMalformedRequest, hdr[0])
	}
	tlen := c.field(1, "tenant length")
	if c.err != nil {
		return c.err
	}
	if int(tlen[0]) > MaxTenantLen {
		return fmt.Errorf("%w: tenant length %d exceeds %d", ErrMalformedRequest, tlen[0], MaxTenantLen)
	}
	f.Cmd, f.Tenant = hdr[1], string(c.field(int(tlen[0]), "tenant"))
	f.body, f.codec = c.off, cd
	if err := f.walk(c, nil); err != nil {
		return err
	}
	f.b = c.buf[:c.off]
	return nil
}

// Check range-checks the frame's residues in place, refusing what Request
// refuses: what a tier that forwards the frame runs, once.
func (f *Frame) Check() error {
	return f.walk(&cursor{buf: f.b, off: f.body, left: len(f.b) - f.body, check: true}, nil)
}

// Request materializes the frame: the decoded request, its ciphertexts drawn
// from the front-end's pool when the frame came through one. ProgBytes and
// Blob alias the frame's bytes; everything it returns is valid until the
// frame is released.
func (f *Frame) Request() (*Request, error) {
	req := &Request{Cmd: f.Cmd, Tenant: f.Tenant}
	f.req = req
	if err := f.walk(&cursor{buf: f.b, off: f.body, left: len(f.b) - f.body}, req); err != nil {
		return nil, err
	}
	return req, nil
}

// walk reads the body of the frame's command from c by shape, checking the
// residues under c.check, or decoding into req — each operand stored in req
// before it is decoded, so Release takes it back either way.
func (f *Frame) walk(c *cursor, req *Request) error {
	c.bad = ErrMalformedRequest
	row, err := commandOf(f.Cmd)
	if c.err != nil || err != nil {
		return cmp.Or(c.err, err)
	}
	switch row.body {
	case bodyBlob:
		blen := c.word("payload length")
		if c.err == nil && (blen == 0 || int64(blen) > int64(f.codec.maxKeyBlob)) {
			return fmt.Errorf("%w: %s payload length %d outside (0, %d]", ErrMalformedRequest, cmdName(f.Cmd), blen, f.codec.maxKeyBlob)
		}
		if blob := c.field(int(blen), "payload"); req != nil {
			req.Blob = blob
		}
	case bodyProgram:
		l := ProgramLimits()
		plen := c.word("program length")
		if c.err == nil && (plen == 0 || int64(plen) > int64(l.MaxEncodedBytes())) {
			return fmt.Errorf("%w: program length %d outside (0, %d]", ErrMalformedRequest, plen, l.MaxEncodedBytes())
		}
		prog := c.field(int(plen), "program")
		ni := c.word("input count")
		if c.err == nil && (ni == 0 || int64(ni) > int64(l.MaxInputs)) {
			return fmt.Errorf("%w: %d program inputs outside (0, %d]", ErrMalformedRequest, ni, l.MaxInputs)
		}
		if req != nil {
			req.ProgBytes, req.Inputs = prog, make([]*fv.Ciphertext, ni)
		}
		for i := range int(ni) {
			var dst any
			if req != nil {
				req.Inputs[i] = f.pool.getFV()
				dst = req.Inputs[i]
			}
			if err := c.ciphertext(f.codec.bfv, dst); err != nil {
				return malformed(ErrMalformedRequest, fmt.Sprintf("reading program input %d", i), err)
			}
		}
	case bodyOp:
		// The op commands are one shape under either scheme: the argument
		// word, then the engine kind's operands, of the scheme's layout.
		layout, err := f.codec.layout(f.Cmd)
		if err != nil {
			return err
		}
		if row.arg != argNone {
			if w := c.word("rotation argument"); req != nil {
				row.arg.put(req, w)
			}
		}
		for i := range row.op.Operands() {
			if err := c.ciphertext(layout, f.operand(req, i)); err != nil {
				return malformed(ErrMalformedRequest, fmt.Sprintf("reading %s operand %c", layout.Scheme, 'A'+i), err)
			}
		}
	}
	return c.err
}

// operand draws operand i of the frame's op from the pool into req: A or B,
// CA or CB under CKKS; nil when there is no req to decode into.
func (f *Frame) operand(req *Request, i int) any {
	switch {
	case req == nil:
		return nil
	case commands[f.Cmd].op.CKKS():
		slots := [2]**ckks.Ciphertext{&req.CA, &req.CB}
		*slots[i] = f.pool.getCKKS()
		return *slots[i]
	}
	slots := [2]**fv.Ciphertext{&req.A, &req.B}
	*slots[i] = f.pool.getFV()
	return *slots[i]
}

// result draws, from the pool the frame's operands come from, the ciphertext
// an op's result is read back into: the scheme's own, by the frame's
// command. Release takes it back with the operands, once the reply that
// carries it has been encoded.
func (f *Frame) result() (*fv.Ciphertext, *ckks.Ciphertext) {
	if commands[f.Cmd].op.CKKS() {
		f.cdst = f.pool.getCKKS()
		return nil, f.cdst
	}
	f.dst = f.pool.getFV()
	return f.dst, nil
}

// Release gives back the frame's buffer, the operands materialized from it
// and the result ciphertext drawn for it. Nothing obtained from the frame
// may be used afterwards.
func (f *Frame) Release() {
	if req := f.req; req != nil {
		f.pool.putFV(req.A)
		f.pool.putFV(req.B)
		for _, ct := range req.Inputs {
			f.pool.putFV(ct)
		}
		f.pool.putCKKS(req.CA)
		f.pool.putCKKS(req.CB)
		f.req = nil
	}
	f.pool.putFV(f.dst)
	f.pool.putCKKS(f.cdst)
	f.dst, f.cdst = nil, nil
	f.buf.release()
	f.b, f.buf = nil, nil
}

// encode serializes req into a frame under cd (send adds its checksum).
func (cd *codec) encode(req *Request) (*Frame, error) {
	if len(req.Tenant) > MaxTenantLen {
		return nil, fmt.Errorf("cloud: tenant %q longer than %d bytes", req.Tenant, MaxTenantLen)
	}
	buf := getBuf(req.encodedSize(cd.params))
	b := append(buf.b, protocolMagicV2[:]...)
	b = append(b, ProtoVersion, req.Cmd)
	b = append(b, byte(len(req.Tenant)))
	b = append(b, req.Tenant...)
	f := &Frame{Cmd: req.Cmd, Tenant: req.Tenant, body: len(b), buf: buf, codec: cd}
	b, err := appendRequestBody(b, cd.params, req)
	buf.b = b
	if err != nil {
		buf.release()
		return nil, err
	}
	f.b = b
	return f, nil
}

// RawReply is a reply as framed off the wire: status and the error half or
// the kind's body as framed bytes, with its mux frame's ID and checksum.
// The routing tier checks and relays it (it is a Reply); clients
// materialize it.
type RawReply struct {
	cmd   uint8   // the command it answers: picks the body's kind and layout
	id    uint64  // the request ID it answers
	b     []byte  // the encoded reply
	sum   uint32  // its sender's CRC-32C of b, which a relay sends b under
	buf   *buffer // pooled backing of b, nil when b is plain memory
	codec *codec  // the request's: what the body was framed under
}

// replyHeadLen is what every reply opens with: the status byte.
const replyHeadLen = 1

// read frames the reply to a cmd request from c under cd, by shape. A CKKS
// command under a codec without a CKKS layout is refused before a byte is
// read.
func (raw *RawReply) read(c *cursor, cd *codec, cmd uint8) error {
	if _, err := cd.layout(cmd); err != nil {
		return err
	}
	raw.cmd, raw.codec = cmd, cd
	if _, err := raw.walk(c, false); err != nil {
		return err
	}
	raw.b = c.buf[:c.off]
	return nil
}

// ServerError returns the failure an error reply reports, nil for a success.
func (raw *RawReply) ServerError() *ServerError {
	if raw.b[0] != statusErr {
		return nil
	}
	return &ServerError{Code: raw.b[replyHeadLen], Msg: string(raw.b[replyHeadLen+5:])}
}

// Check range-checks the reply's residues in place, refusing what Reply
// refuses: what a tier that relays the reply runs, once.
func (raw *RawReply) Check() error {
	_, err := raw.walk(&cursor{buf: raw.b, left: len(raw.b), check: true}, false)
	return err
}

// Reply materializes the reply: the kind its command answers in, with newly
// allocated ciphertexts (they outlive the exchange), or the *ServerError it
// reports. Nothing it returns aliases the raw bytes.
func (raw *RawReply) Reply() (Reply, error) {
	return raw.walk(&cursor{buf: raw.b, left: len(raw.b)}, true)
}

// walk reads a reply from c — status byte, then the error half or the body
// of the kind raw's command answers in — by shape, checking the residues
// under c.check, or decoding it into the reply it returns. An error before
// the status byte surfaces as is (a hangup or timeout, not garbage), anything
// after is ErrMalformedResponse.
func (raw *RawReply) walk(c *cursor, decode bool) (rep Reply, err error) {
	head, err := c.next(replyHeadLen)
	if err != nil {
		return nil, err
	}
	c.bad = ErrMalformedResponse
	row := commands[raw.cmd]
	layout, _ := raw.codec.layout(raw.cmd) // read refused a command without one
	switch {
	case head[0] == statusErr:
		code := c.field(1, "error header") // then the message length
		ln := c.word("error header")
		// An empty message would make a decoded Response look like a success
		// (Err == "" is the discriminator its callers use).
		if c.err == nil && (ln == 0 || ln > 1<<16) {
			return nil, fmt.Errorf("%w: implausible error length %d", ErrMalformedResponse, ln)
		}
		if msg := c.field(int(ln), "error message"); decode && c.err == nil {
			rep = &ServerError{Code: code[0], Msg: string(msg)}
		}
	case head[0] != statusOK:
		// A corrupted stream must not be mistaken for a success frame — the
		// bytes after an unknown status would be parsed as a body.
		return nil, fmt.Errorf("%w: unknown status byte %d", ErrMalformedResponse, head[0])
	case row.reply == ReplyProgram:
		hdr := c.field(28, "program response header") // makespan, serial, key loads, nodes, output count
		if c.err != nil {
			return nil, c.err
		}
		nOut := binary.LittleEndian.Uint32(hdr[24:])
		if nOut == 0 || int64(nOut) > int64(ProgramLimits().MaxOutputs) {
			return nil, fmt.Errorf("%w: %d program outputs outside (0, %d]", ErrMalformedResponse, nOut, ProgramLimits().MaxOutputs)
		}
		var outs []*fv.Ciphertext
		if decode {
			outs = make([]*fv.Ciphertext, nOut)
			rep = &ProgramResponse{
				ID:            raw.id,
				MakespanNanos: binary.LittleEndian.Uint64(hdr),
				SerialNanos:   binary.LittleEndian.Uint64(hdr[8:]),
				KeyLoads:      binary.LittleEndian.Uint32(hdr[16:]),
				Nodes:         binary.LittleEndian.Uint32(hdr[20:]),
				Outputs:       outs,
			}
		}
		for i := range int(nOut) {
			var dst any
			if decode {
				outs[i] = new(fv.Ciphertext)
				dst = outs[i]
			}
			if err := c.ciphertext(layout, dst); err != nil {
				return nil, malformed(ErrMalformedResponse, fmt.Sprintf("reading program output %d", i), err)
			}
		}
	case row.reply == ReplyOp:
		hdr := c.field(12, "response header") // compute nanos, worker
		var dst any
		if decode {
			resp := &Response{ID: raw.id, ComputeNanos: binary.LittleEndian.Uint64(hdr), Worker: binary.LittleEndian.Uint32(hdr[8:])}
			if row.op.CKKS() {
				resp.CKKSResult = new(ckks.Ciphertext)
				dst = resp.CKKSResult
			} else {
				resp.Result = new(fv.Ciphertext)
				dst = resp.Result
			}
			rep = resp
		}
		if err := c.ciphertext(layout, dst); err != nil {
			return nil, malformed(ErrMalformedResponse, "reading result", err)
		}
	default: // an info or a blob body
		ln, maxLen := c.word("body length"), row.bound(raw.codec)
		if int64(ln) > int64(maxLen) {
			return nil, fmt.Errorf("%w: body length %d exceeds %d", ErrMalformedResponse, ln, maxLen)
		}
		body := c.field(int(ln), "body")
		switch {
		case c.err != nil:
		case row.reply == ReplyInfo: // decoded in every mode: framing needs its JSON to parse
			info := new(ServerInfo)
			if err := json.Unmarshal(body, info); err != nil {
				return nil, fmt.Errorf("%w: decoding info: %w", ErrMalformedResponse, err)
			}
			rep = info
		case decode:
			rep = Blob(bytes.Clone(body))
		}
	}
	return rep, c.err
}

// Release gives the reply's buffer back; the reply must not be used again.
func (raw *RawReply) Release() {
	raw.buf.release()
	raw.b, raw.buf = nil, nil
}

// encode relays the reply: the bytes are already the encoding, so it hands
// its own buffer to the writer, which sends it under raw.sum.
func (raw *RawReply) encode(*fv.Params) (*buffer, error) {
	if raw.b == nil {
		return nil, errors.New("cloud: raw reply relayed twice or after release")
	}
	buf := raw.buf
	if buf == nil {
		buf = &buffer{}
	}
	buf.b = raw.b
	raw.b, raw.buf = nil, nil
	return buf, nil
}

// replySum is the checksum rep, encoded as b, goes out under: its sender's.
func replySum(rep Reply, b []byte) uint32 {
	if raw, ok := rep.(*RawReply); ok {
		return raw.sum
	}
	return muxChecksum(b)
}

// RoundTrip is what every client-side call is made of: encode the request,
// run one raw exchange, materialize the reply. exchange is a connection's
// (or the router's) raw exchange; a server-reported failure comes back as
// the *ServerError reply it is. The request is encoded under params alone: a
// CKKS request encodes, but no transport carries it, for want of a layout to
// frame its reply under.
func RoundTrip(ctx context.Context, exchange func(context.Context, *Frame) (*RawReply, error), params *fv.Params, req *Request) (Reply, error) {
	cd := newCodec(params, nil)
	return cd.roundTrip(ctx, exchange, req)
}

// roundTrip is RoundTrip under cd.
func (cd *codec) roundTrip(ctx context.Context, exchange func(context.Context, *Frame) (*RawReply, error), req *Request) (Reply, error) {
	raw, err := cd.send(ctx, exchange, req)
	if err != nil {
		return nil, err
	}
	defer raw.Release()
	return raw.Reply()
}

// send is roundTrip short of materializing: the reply, framed by shape, for
// the caller to check or materialize and release. The request's checksum is
// computed once, however many attempts the exchange makes.
func (cd *codec) send(ctx context.Context, exchange func(context.Context, *Frame) (*RawReply, error), req *Request) (*RawReply, error) {
	f, err := cd.encode(req)
	if err != nil {
		return nil, err
	}
	f.sum = muxChecksum(f.b)
	raw, err := exchange(ctx, f)
	f.Release()
	return raw, err
}
