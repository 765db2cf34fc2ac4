package cloud

import (
	"bytes"
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

// Framing and materialization. The wire codec has two halves:
//
//   - Framing turns a stream (or a mux payload already in memory) into a
//     Frame or a RawReply: the header fields, plus the whole message as one
//     contiguous byte slice whose length is derived from the command and each
//     ciphertext's header, bounded by the limits of the codec it is framed
//     under, and with every ciphertext — BFV or CKKS — validated in place by
//     the one ciphertext codec both schemes share (rlwe.Layout.Check under the
//     codec's layout for the command: header fields, then every residue below
//     its modulus). Nothing ciphertext-sized is allocated, for any command.
//   - Materialization turns those bytes into *fv.Ciphertext and
//     *ckks.Ciphertext values (Frame.Request, RawReply.Reply) and back
//     (codec.encode, Reply.encode).
//
// The front-end only frames. The routing tier never materializes: it
// forwards a frame's bytes to a backend under a new request ID and relays the
// backend's framed reply under the client's, having range-checked both — it
// stays a trust boundary (a node never sees a residue the router let through
// unchecked, a client never gets one a damaged hop produced) without ever
// unpacking a coefficient. The data node materializes operands of either
// scheme into recycled ciphertexts.
//
// Ownership: a Frame and a RawReply own their bytes until released. The
// front-end releases a request's frame — the operands materialized from it
// and the result ciphertext an op was read back into, all drawn from one
// pool — only after the reply has been written, because the reply references
// them (an op's result; a program output that is one of its inputs). A
// reply's encoding is a pooled buffer released after the write;
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
// allocates and never recycles (clients, and frames read off a plain
// stream).
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

// cursor walks the bytes of one message. Over a stream (r set) it appends
// what it reads to buf, so the message ends up contiguous there; over a
// payload already in memory (r nil, buf holding it) it only advances. Either
// way it hands out at most left more bytes. Slices it returns are invalidated
// by the next call (buf may move); callers keep offsets, not slices.
type cursor struct {
	r    io.Reader
	buf  []byte
	off  int // bytes of buf consumed so far
	left int
	// short is how many bytes the last failed next did get: zero means the
	// source ended (or timed out) exactly on a message boundary.
	short int
}

// streamSlack is the most a stream cursor reserves beyond the bytes that have
// actually arrived while fewer than that have: a connection that claims a
// key-blob body (hundreds of megabytes) and then stalls or hangs up has
// cost its peer one slack, not the claim.
const streamSlack = 1 << 20

// growLimit is the capacity a stream cursor may hold once have bytes of the
// message have arrived: the larger of streamSlack and have beyond them, so a
// peer has to send a byte for every byte it makes the reader reserve and the
// copying stays linear in the message however long it is.
func growLimit(have int) int { return have + max(streamSlack, have) }

// next returns the following n bytes, with io.ReadFull's error contract:
// io.EOF when none were available, io.ErrUnexpectedEOF when only some were.
func (c *cursor) next(n int) ([]byte, error) {
	end := c.off + n
	if n > c.left {
		c.short = 0
		return nil, io.ErrUnexpectedEOF
	}
	if c.r == nil {
		if end > len(c.buf) {
			c.short = len(c.buf) - c.off
			if c.short == 0 {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		}
	} else {
		// n is the peer's word until the bytes arrive, so the buffer is grown
		// toward end only as far as growLimit lets what has arrived justify:
		// an op frame still lands in one allocation, a key blob in a handful.
		for have := c.off; have < end; {
			if end > cap(c.buf) {
				// Doubling keeps the copying linear over a message of many parts.
				if grown := min(max(end, 2*cap(c.buf)), growLimit(have)); grown > cap(c.buf) {
					c.buf = append(make([]byte, 0, grown), c.buf[:have]...)
				}
			}
			stop := min(end, cap(c.buf))
			c.buf = c.buf[:stop]
			got, err := io.ReadFull(c.r, c.buf[have:stop])
			have += got
			if err != nil {
				if c.short = have - c.off; c.short > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF // the source ended between two steps
				}
				return nil, err
			}
		}
	}
	b := c.buf[c.off:end]
	c.off, c.left = end, c.left-n
	return b, nil
}

// ciphertext consumes one ciphertext of layout l — its header, then the length
// the header gives — and validates it in place.
func (c *cursor) ciphertext(l rlwe.Layout) error {
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
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	_, err = l.Check(c.buf[start:c.off])
	return err
}

// requestHeadLen is the fixed part of a request header: magic, version,
// command, request ID, tenant length.
const requestHeadLen = 4 + 1 + 1 + 8 + 1

// requestIDOff is where the request ID sits in an encoded request.
const requestIDOff = 4 + 1 + 1

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

// newCodec derives the codec of a side speaking params and, when non-nil,
// cparams. The bounds are generous by construction — their job is stopping
// a hostile length field before anything is reserved, not accounting bytes.
func newCodec(params *fv.Params, cparams *ckks.Params) codec {
	cd := codec{params: params, bfv: params.Wire()}
	// A key blob holds up to 65 keys per scheme (a relin key and 64 Galois
	// keys) in checksummed containers, each two 64-entry gadget rows of
	// polynomials at 8 bytes a coefficient: over the q basis for BFV, over
	// the chain and p* for CKKS.
	keys := func(rows, n int) int { return 65 * (256 + 2*64*(64+rows*n*8) + 16) }
	cd.maxKeyBlob = 64 + keys(len(cd.bfv.Mods), cd.bfv.N)
	if cparams != nil {
		cd.ckks = cparams.Wire()
		cd.maxKeyBlob += keys(len(cd.ckks.Mods)+1, cd.ckks.N)
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
	// A mux payload carries any request the sequential framing admits, or a
	// reply, with a reply header's margin: one bound for both framings.
	cd.maxMuxPayload = max(cd.maxRequest, maxInfoBytes) + 64
	return cd
}

// EnableCKKS arms the connection for the approximate-arithmetic commands: its
// own CKKS requests go out, and their replies are framed, under p, which must
// match the server's (check ServerInfo.CKKS via Info first). Call it before
// the connection's first exchange. Without it a CKKS request is refused before
// it touches the wire, and the stream stays usable.
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
// byte — as validated bytes. Handlers receive frames; one that only forwards
// never looks further.
type Frame struct {
	Cmd uint8
	// ID is the request ID the frame arrived under; the reply goes out under
	// it. Forwarding restamps the bytes, never this field.
	ID     uint64
	Tenant string

	b     []byte  // the encoded request
	body  int     // offset of the command's body in b
	buf   *buffer // pooled backing of b; nil when the connection owns it
	codec *codec  // what the frame was framed or encoded under

	pool *ctPool  // where Request draws operand ciphertexts from
	req  *Request // what Request materialized, for release
	// dst and cdst are the result ciphertexts a handler drew from the pool
	// (Frame.result), for release.
	dst  *fv.Ciphertext
	cdst *ckks.Ciphertext
}

// read frames one request from c under cd. Errors: a clean io.EOF (or the
// bare read error) before the magic is complete, and ErrMalformedRequest for
// everything after.
func (f *Frame) read(c *cursor, cd *codec) error {
	magic, err := c.next(4)
	if err != nil {
		return err
	}
	if [4]byte(magic) != protocolMagicV2 {
		return fmt.Errorf("%w: bad protocol magic %q", ErrMalformedRequest, magic)
	}
	hdr, err := c.next(10) // version, command, request ID
	if err != nil {
		return malformed(ErrMalformedRequest, "truncated v2 header", err)
	}
	if hdr[0] != ProtoVersion {
		return fmt.Errorf("%w: unsupported protocol version %d", ErrMalformedRequest, hdr[0])
	}
	f.Cmd, f.ID = hdr[1], binary.LittleEndian.Uint64(hdr[2:])
	tlen, err := c.next(1)
	if err != nil {
		return malformed(ErrMalformedRequest, "truncated tenant length", err)
	}
	if int(tlen[0]) > MaxTenantLen {
		return fmt.Errorf("%w: tenant length %d exceeds %d", ErrMalformedRequest, tlen[0], MaxTenantLen)
	}
	tenant, err := c.next(int(tlen[0]))
	if err != nil {
		return malformed(ErrMalformedRequest, "truncated tenant", err)
	}
	f.Tenant = string(tenant)
	f.body = c.off
	f.codec = cd

	row, err := commandOf(f.Cmd)
	if err != nil {
		return err
	}
	switch row.body {
	case bodyBlob:
		n, err := c.next(4)
		if err != nil {
			return malformed(ErrMalformedRequest, "truncated payload length", err)
		}
		blen := binary.LittleEndian.Uint32(n)
		if blen == 0 || int64(blen) > int64(cd.maxKeyBlob) {
			return fmt.Errorf("%w: %s payload length %d outside (0, %d]", ErrMalformedRequest, cmdName(f.Cmd), blen, cd.maxKeyBlob)
		}
		if _, err := c.next(int(blen)); err != nil {
			return malformed(ErrMalformedRequest, "truncated payload", err)
		}
	case bodyProgram:
		l := ProgramLimits()
		n, err := c.next(4)
		if err != nil {
			return malformed(ErrMalformedRequest, "truncated program length", err)
		}
		plen := binary.LittleEndian.Uint32(n)
		if plen == 0 || int64(plen) > int64(l.MaxEncodedBytes()) {
			return fmt.Errorf("%w: program length %d outside (0, %d]", ErrMalformedRequest, plen, l.MaxEncodedBytes())
		}
		if _, err := c.next(int(plen)); err != nil {
			return malformed(ErrMalformedRequest, "truncated program", err)
		}
		if n, err = c.next(4); err != nil {
			return malformed(ErrMalformedRequest, "truncated input count", err)
		}
		ni := binary.LittleEndian.Uint32(n)
		if ni == 0 || int64(ni) > int64(l.MaxInputs) {
			return fmt.Errorf("%w: %d program inputs outside (0, %d]", ErrMalformedRequest, ni, l.MaxInputs)
		}
		for i := 0; i < int(ni); i++ {
			if err := c.ciphertext(cd.bfv); err != nil {
				return malformed(ErrMalformedRequest, fmt.Sprintf("reading program input %d", i), err)
			}
		}
	case bodyOp:
		// The op commands are one shape under either scheme: the argument
		// word, then the engine kind's operands, of the scheme's layout.
		layout, err := cd.layout(f.Cmd)
		if err != nil {
			return err
		}
		if row.arg != argNone {
			if _, err := c.next(4); err != nil {
				return malformed(ErrMalformedRequest, "truncated rotation argument", err)
			}
		}
		for i := 0; i < row.op.Operands(); i++ {
			if err := c.ciphertext(layout); err != nil {
				return malformed(ErrMalformedRequest, fmt.Sprintf("reading %s operand %c", layout.Scheme, 'A'+i), err)
			}
		}
	}
	f.b = c.buf[:c.off]
	return nil
}

// stamp rewrites the request ID in the encoded bytes: how a frame goes out
// again under a connection's own numbering with nothing else touched.
func (f *Frame) stamp(id uint64) {
	binary.LittleEndian.PutUint64(f.b[requestIDOff:], id)
}

// Request materializes the frame: the decoded request, its ciphertexts drawn
// from the front-end's pool when the frame came through one. ProgBytes and
// Blob alias the frame's bytes; everything it returns is valid until the
// frame is released.
func (f *Frame) Request() (*Request, error) {
	req := &Request{Cmd: f.Cmd, ID: f.ID, Tenant: f.Tenant}
	f.req = req
	body := f.b[f.body:]
	operand := func() (*fv.Ciphertext, error) {
		ct := f.pool.getFV()
		n, _, err := f.codec.bfv.Decode(body, &ct.Els)
		body = body[n:]
		return ct, err
	}
	ckksOperand := func() (ct *ckks.Ciphertext, err error) {
		ct = f.pool.getCKKS()
		var n int
		n, ct.Scale, err = f.codec.ckks.Decode(body, &ct.Els)
		body = body[n:]
		return ct, err
	}
	// An operand is stored in req even when its decode failed, so Release
	// takes it back either way.
	var err error
	switch row := commands[f.Cmd]; row.body {
	case bodyBlob:
		req.Blob = body[4:]
	case bodyProgram:
		plen := binary.LittleEndian.Uint32(body)
		req.ProgBytes = body[4 : 4+plen]
		body = body[4+plen:]
		req.Inputs = make([]*fv.Ciphertext, binary.LittleEndian.Uint32(body))
		body = body[4:]
		for i := 0; i < len(req.Inputs) && err == nil; i++ {
			req.Inputs[i], err = operand()
		}
	case bodyOp:
		if row.arg != argNone {
			row.arg.put(req, binary.LittleEndian.Uint32(body))
			body = body[4:]
		}
		two := row.op.Operands() == 2
		if row.op.CKKS() {
			if req.CA, err = ckksOperand(); err == nil && two {
				req.CB, err = ckksOperand()
			}
		} else if req.A, err = operand(); err == nil && two {
			req.B, err = operand()
		}
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// result draws, from the pool the frame's operands come from, the ciphertext
// an op's result is read back into: the scheme's own, by the frame's
// command. Release takes it back with the operands, after the reply that
// carries it has been written.
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
	if f.buf != nil {
		f.buf.release()
	} else if PoisonReleased {
		poison(f.b) // the connection's own buffer: about to be overwritten anyway
	}
	f.b, f.buf = nil, nil
}

// encode serializes req into a frame under cd.
func (cd *codec) encode(req *Request) (*Frame, error) {
	if len(req.Tenant) > MaxTenantLen {
		return nil, fmt.Errorf("cloud: tenant %q longer than %d bytes", req.Tenant, MaxTenantLen)
	}
	buf := getBuf(req.encodedSize(cd.params))
	b := append(buf.b, protocolMagicV2[:]...)
	b = append(b, ProtoVersion, req.Cmd)
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	b = append(b, byte(len(req.Tenant)))
	b = append(b, req.Tenant...)
	f := &Frame{Cmd: req.Cmd, ID: req.ID, Tenant: req.Tenant, body: len(b), buf: buf, codec: cd}
	b, err := appendRequestBody(b, cd.params, req)
	buf.b = b
	if err != nil {
		buf.release()
		return nil, err
	}
	f.b = b
	return f, nil
}

// RawReply is a reply as framed off the wire: status, request ID and the
// error half or the kind's body as validated bytes. The routing tier relays
// it as is (it is a Reply); clients materialize it.
type RawReply struct {
	row   *command // the command it answers: picks the body's kind
	b     []byte   // the encoded reply
	buf   *buffer  // pooled backing of b, nil when b is plain memory
	codec *codec   // the request's: what the body was framed under
	// info is the info body, decoded while framing: its JSON has to parse for
	// the reply to be well formed.
	info *ServerInfo
}

// replyHeadLen is what every reply opens with: status, request ID.
const replyHeadLen = 1 + 8

// replyHint is how large a buffer to read f's reply into: a reply is rarely
// longer than its request, and an op command answers with one ciphertext —
// about the size of one of its operands, or for a ping, which has none, a
// two-element BFV one — and a few fixed fields.
func (f *Frame) replyHint() int {
	row := commands[f.Cmd]
	switch {
	case row.reply != ReplyOp:
		return len(f.b)
	case row.op.Operands() > 0:
		return (len(f.b)-f.body)/row.op.Operands() + 64
	}
	return 2*len(f.codec.bfv.Mods)*f.codec.bfv.N*4 + 64
}

// readRawReply frames the reply to a cmd request from a stream into a pooled
// buffer the returned reply owns. hint sizes that buffer; a longer reply
// grows it.
func readRawReply(r io.Reader, hint int, cd *codec, cmd uint8) (*RawReply, error) {
	buf := getBuf(hint)
	c := cursor{r: r, buf: buf.b, left: math.MaxInt}
	raw := &RawReply{buf: buf}
	err := raw.read(&c, cd, cmd)
	buf.b = c.buf[:0] // the cursor may have moved it
	if err != nil {
		buf.release()
		return nil, err
	}
	return raw, nil
}

// read frames the reply to a cmd request from c under cd, with
// readReplyHead's error contract: an error before the first byte surfaces as
// is, anything after is ErrMalformedResponse. A CKKS command under a codec
// without a CKKS layout is refused before a byte is read.
func (raw *RawReply) read(c *cursor, cd *codec, cmd uint8) error {
	layout, err := cd.layout(cmd)
	if err != nil {
		return err
	}
	raw.row, raw.codec = commands[cmd], cd
	head, err := c.next(replyHeadLen)
	if err != nil {
		if c.short == 0 {
			return err // the reply never started: hangup or timeout, not garbage
		}
		return malformed(ErrMalformedResponse, "truncated reply head", err)
	}
	switch head[0] {
	case statusOK:
		err = raw.readBody(c, layout)
	case statusErr:
		var hdr []byte // code, message length
		if hdr, err = c.next(5); err != nil {
			return malformed(ErrMalformedResponse, "truncated error header", err)
		}
		// An empty message would make a decoded Response look like a success
		// (Err == "" is the discriminator its callers use).
		ln := binary.LittleEndian.Uint32(hdr[1:])
		if ln == 0 || ln > 1<<16 {
			return fmt.Errorf("%w: implausible error length %d", ErrMalformedResponse, ln)
		}
		if _, err = c.next(int(ln)); err != nil {
			return malformed(ErrMalformedResponse, "truncated error message", err)
		}
	default:
		// A corrupted stream must not be mistaken for a success frame — the
		// bytes after an unknown status would be parsed as a body.
		return fmt.Errorf("%w: unknown status byte %d", ErrMalformedResponse, head[0])
	}
	if err != nil {
		return err
	}
	raw.b = c.buf[:c.off]
	return nil
}

// readBody frames the success body of the kind raw's command answers in; an
// op result is of the command's layout.
func (raw *RawReply) readBody(c *cursor, layout rlwe.Layout) error {
	switch raw.row.reply {
	case ReplyProgram:
		hdr, err := c.next(28) // makespan, serial, key loads, nodes, output count
		if err != nil {
			return malformed(ErrMalformedResponse, "truncated program response header", err)
		}
		nOut := binary.LittleEndian.Uint32(hdr[24:])
		if nOut == 0 || int64(nOut) > int64(ProgramLimits().MaxOutputs) {
			return fmt.Errorf("%w: %d program outputs outside (0, %d]", ErrMalformedResponse, nOut, ProgramLimits().MaxOutputs)
		}
		for i := 0; i < int(nOut); i++ {
			if err := c.ciphertext(layout); err != nil {
				return malformed(ErrMalformedResponse, fmt.Sprintf("reading program output %d", i), err)
			}
		}
	case ReplyInfo, ReplyBlob:
		n, err := c.next(4)
		if err != nil {
			return malformed(ErrMalformedResponse, "truncated body length", err)
		}
		ln, maxLen := binary.LittleEndian.Uint32(n), raw.row.bound(raw.codec)
		if int64(ln) > int64(maxLen) {
			return fmt.Errorf("%w: body length %d exceeds %d", ErrMalformedResponse, ln, maxLen)
		}
		body, err := c.next(int(ln))
		if err != nil {
			return malformed(ErrMalformedResponse, "truncated body", err)
		}
		if raw.row.reply == ReplyInfo {
			raw.info = new(ServerInfo)
			if err := json.Unmarshal(body, raw.info); err != nil {
				return fmt.Errorf("%w: decoding info: %w", ErrMalformedResponse, err)
			}
		}
	default:
		if _, err := c.next(12); err != nil { // compute nanos, worker
			return malformed(ErrMalformedResponse, "truncated response header", err)
		}
		if err := c.ciphertext(layout); err != nil {
			return malformed(ErrMalformedResponse, "reading result", err)
		}
	}
	return nil
}

// ID returns the request ID the reply answers.
func (raw *RawReply) ID() uint64 { return binary.LittleEndian.Uint64(raw.b[1:]) }

// ServerError returns the failure an error reply reports, nil for a success.
func (raw *RawReply) ServerError() *ServerError {
	if raw.b[0] != statusErr {
		return nil
	}
	return &ServerError{Code: raw.b[replyHeadLen], Msg: string(raw.b[replyHeadLen+5:])}
}

// Reply materializes the reply: the kind its command answers in, with newly
// allocated ciphertexts (they outlive the exchange), or the *ServerError it
// reports. Nothing it returns aliases the raw bytes.
func (raw *RawReply) Reply() (Reply, error) {
	if se := raw.ServerError(); se != nil {
		return se, nil
	}
	body := raw.b[replyHeadLen:]
	result := func() (*fv.Ciphertext, error) {
		ct := new(fv.Ciphertext)
		n, _, err := raw.codec.bfv.Decode(body, &ct.Els)
		if err != nil {
			return nil, err
		}
		body = body[n:]
		return ct, nil
	}
	switch raw.row.reply {
	case ReplyProgram:
		resp := &ProgramResponse{
			ID:            raw.ID(),
			MakespanNanos: binary.LittleEndian.Uint64(body),
			SerialNanos:   binary.LittleEndian.Uint64(body[8:]),
			KeyLoads:      binary.LittleEndian.Uint32(body[16:]),
			Nodes:         binary.LittleEndian.Uint32(body[20:]),
			Outputs:       make([]*fv.Ciphertext, binary.LittleEndian.Uint32(body[24:])),
		}
		body = body[28:]
		for i := range resp.Outputs {
			var err error
			if resp.Outputs[i], err = result(); err != nil {
				return nil, err
			}
		}
		return resp, nil
	case ReplyInfo:
		return raw.info, nil
	case ReplyBlob:
		return Blob(bytes.Clone(body[4:])), nil
	}
	resp := &Response{
		ID:           raw.ID(),
		ComputeNanos: binary.LittleEndian.Uint64(body),
		Worker:       binary.LittleEndian.Uint32(body[8:]),
	}
	body = body[12:]
	var err error
	if raw.row.op.CKKS() {
		ct := new(ckks.Ciphertext)
		_, ct.Scale, err = raw.codec.ckks.Decode(body, &ct.Els)
		resp.CKKSResult = ct
	} else {
		resp.Result, err = result()
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Release gives the reply's buffer back; the reply must not be used again.
func (raw *RawReply) Release() {
	raw.buf.release()
	raw.b, raw.buf = nil, nil
}

// encode relays the reply under id: the bytes are already the encoding, so
// it restamps the ID and hands its own buffer to the writer.
func (raw *RawReply) encode(_ *fv.Params, id uint64) (*buffer, error) {
	if raw.b == nil {
		return nil, errors.New("cloud: raw reply relayed twice or after release")
	}
	binary.LittleEndian.PutUint64(raw.b[1:], id)
	buf := raw.buf
	if buf == nil {
		buf = &buffer{}
	}
	buf.b = raw.b
	raw.b, raw.buf = nil, nil
	return buf, nil
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

// send is roundTrip short of materializing: the framed reply, validated in
// place, for the caller to read and release.
func (cd *codec) send(ctx context.Context, exchange func(context.Context, *Frame) (*RawReply, error), req *Request) (*RawReply, error) {
	f, err := cd.encode(req)
	if err != nil {
		return nil, err
	}
	raw, err := exchange(ctx, f)
	f.Release()
	return raw, err
}
