package cloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The session framing ("HEAM"), the only one on the wire. Each v2 request or
// reply travels in a tagged, checksummed frame, so one connection carries
// many in-flight request IDs, the server completes them out of order as
// workers finish, and damage in flight is caught before a byte is decoded: a
// bit flipped in a residue below its modulus would otherwise decode as a
// valid, wrong ciphertext.
//
// # Session layout
//
//	client hello:  "HEAM", version byte, requested window (uint16 LE)
//	server hello:  "HEAM", version byte, granted window (uint16 LE)
//	then frames both ways, each:
//
//	  type (1) | request ID (8 LE) | payload len (4 LE) |
//	  payload checksum (4 LE) | header checksum (4 LE) | payload
//
// The header holds the one request ID. Both checksums are CRC-32C: on amd64
// with VPCLMULQDQ a carry-less-multiply folding lane (crc_amd64.s), elsewhere
// hash/crc32, which the lane is held to bit for bit. The header checksum
// covers the 17 bytes before it; the payload checksum is its sender's, which
// a router verifies and relays the payload under, so the far end checks the
// sender's checksum over the bytes the router forwarded. A 393 KB frame is
// checked in about ten microseconds, three times per routed Mult each way.
//
// The payload is one whole v2 request or reply, framed in memory by frame.go:
// the mux layer adds tagging and integrity, not a second payload codec.
//
// # Flow control
//
// The granted window bounds the number of unanswered request IDs per
// connection. The client enforces it without blocking: a submission past the
// window fails fast with ErrWindowExhausted (typed backpressure the caller
// can react to — spill to another connection, queue, or shed), never a
// deadlock. The server independently bounds its concurrent dispatches to the
// same window, so a client that ignores its side cannot fan one socket out
// into unbounded engine work.
//
// # Fault isolation
//
// A header that fails its checksum leaves the frame length untrusted, so the
// stream cannot be resynchronized: ErrMalformedMuxFrame is connection-fatal.
// A payload that fails its checksum under an intact header fails exactly its
// own request, with a retryable ErrMuxPayloadChecksum; the stream stays in
// sync and every other in-flight exchange proceeds.
const (
	// MuxProtoVersion is the mux session version negotiated in the hello.
	// Version 2 made the checksums CRC-32C; version 3 took the request ID out
	// of the payload and cut the payload checksum field to 4 bytes. Both ends
	// ship together, so an older hello is refused, not translated.
	MuxProtoVersion uint8 = 3
	// DefaultMuxWindow is the in-flight request window a client asks for.
	DefaultMuxWindow = 32
	// MaxMuxWindow caps what a server grants, whatever the client requests.
	MaxMuxWindow = 256
)

// muxMagic opens every session: a connection that starts with anything else
// is closed.
var muxMagic = [4]byte{'H', 'E', 'A', 'M'}

// Mux frame types.
const (
	// MuxFrameRequest carries an encoded v2 request (client to server).
	MuxFrameRequest uint8 = 1
	// MuxFrameResponse carries an encoded v2 response of whichever framing
	// the request's command answers with (server to client).
	MuxFrameResponse uint8 = 2
)

// Typed mux errors.
var (
	// ErrMalformedMuxFrame marks a structurally broken mux frame or hello:
	// bad magic, bad version, an impossible length, an unknown frame type, a
	// header checksum mismatch, or truncation inside a frame. The stream
	// cannot be trusted past it; the connection must be dropped.
	ErrMalformedMuxFrame = errors.New("cloud: malformed mux frame")
	// ErrMuxPayloadChecksum marks a frame whose header was intact but whose
	// payload failed its checksum. Only the request ID carried by that frame
	// is affected; the connection stays usable. The exchange is retryable:
	// corruption in flight means the payload was never acted on.
	ErrMuxPayloadChecksum = errors.New("cloud: mux payload checksum mismatch")
	// ErrWindowExhausted is the client-side backpressure signal: every slot
	// of the negotiated in-flight window is occupied. The submission was not
	// sent; retry after an in-flight exchange completes, or use another
	// connection.
	ErrWindowExhausted = errors.New("cloud: mux window exhausted")
)

// muxHeaderLen is the fixed frame header size:
// type(1) + id(8) + len(4) + payload checksum(4) + header checksum(4).
const muxHeaderLen = 1 + 8 + 4 + 4 + 4

// muxHelloLen is the hello size either way: magic(4) + version(1) + window(2).
const muxHelloLen = 4 + 1 + 2

// MuxFrame is one decoded mux frame.
type MuxFrame struct {
	Type    uint8
	ID      uint64
	Payload []byte
	sum     uint32 // the header's payload checksum: what a relay forwards Payload under
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// muxChecksum is the one checksum of the mux layer, over payloads and frame
// headers alike: CRC-32C, hash/crc32's value bit for bit. crc32c carries a
// CRC state over p like crc32.Update with the Castagnoli table, on the vector
// lane where the CPU has one (crc_amd64.go).
func muxChecksum(p []byte) uint32 { return crc32c(0, p) }

// WriteMuxHello writes one hello (client request or server grant).
func WriteMuxHello(w io.Writer, window int) error {
	if window < 1 || window > int(^uint16(0)) {
		return fmt.Errorf("cloud: mux window %d outside [1, %d]", window, ^uint16(0))
	}
	var buf [muxHelloLen]byte
	copy(buf[:4], muxMagic[:])
	buf[4] = MuxProtoVersion
	binary.LittleEndian.PutUint16(buf[5:7], uint16(window))
	_, err := w.Write(buf[:])
	return err
}

// ReadMuxHello reads and validates one hello, returning the window it
// carries. A clean EOF before any byte surfaces as io.EOF; anything broken
// after that wraps ErrMalformedMuxFrame.
func ReadMuxHello(r io.Reader) (int, error) {
	var buf [muxHelloLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, malformed(ErrMalformedMuxFrame, "truncated hello", err)
	}
	if [4]byte(buf[:4]) != muxMagic {
		return 0, fmt.Errorf("%w: bad hello magic %q", ErrMalformedMuxFrame, buf[:4])
	}
	if buf[4] != MuxProtoVersion {
		return 0, fmt.Errorf("%w: unsupported mux version %d", ErrMalformedMuxFrame, buf[4])
	}
	window := int(binary.LittleEndian.Uint16(buf[5:7]))
	if window < 1 {
		return 0, fmt.Errorf("%w: zero window", ErrMalformedMuxFrame)
	}
	return window, nil
}

// writeMuxFrame frames payload under (typ, id) and the payload checksum sum —
// its sender's, computed once — and writes it. The caller serializes
// concurrent writers.
func writeMuxFrame(w io.Writer, typ uint8, id uint64, payload []byte, sum uint32) error {
	if len(payload) == 0 {
		return fmt.Errorf("cloud: empty mux payload")
	}
	var hdr [muxHeaderLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:9], id)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[13:17], sum)
	binary.LittleEndian.PutUint32(hdr[17:21], muxChecksum(hdr[:17]))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// streamSlack is the most readMuxFrame reserves beyond the bytes that have
// actually arrived while fewer than that have: a connection that claims a
// key-blob payload (hundreds of megabytes) and then stalls or hangs up has
// cost its peer one slack, not the claim.
const streamSlack = 1 << 20

// growLimit is the capacity a frame's payload may hold once have bytes of it
// have arrived: the larger of streamSlack and have beyond them, so a peer has
// to send a byte for every byte it makes the reader reserve and the copying
// stays linear in the payload however long it is.
func growLimit(have int) int { return have + max(streamSlack, have) }

// readMuxFrame reads one frame. The payload bound is asked for once the
// header is in (a client's grows with what it has sent), and with pooled set
// the payload lands in a pooled buffer, returned beside the frame (non-nil
// whenever the frame's Payload is) for the caller to release or hand on.
//
// Error contract, in decreasing blast radius:
//   - io.EOF: the peer hung up cleanly between frames.
//   - wraps ErrMalformedMuxFrame: the stream is unrecoverable (untrusted
//     length); drop the connection. Truncation inside a frame reports
//     io.ErrUnexpectedEOF wrapped under the same sentinel.
//   - wraps ErrMuxPayloadChecksum: the frame is returned WITH its ID and
//     consumed payload so the caller can fail exactly that request and keep
//     reading; the next frame boundary is intact.
func readMuxFrame(r io.Reader, limit func() int, pooled bool) (f MuxFrame, buf *buffer, err error) {
	var hdr [muxHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return f, nil, io.EOF
		}
		return f, nil, malformed(ErrMalformedMuxFrame, "truncated frame header", err)
	}
	if got, want := muxChecksum(hdr[:17]), binary.LittleEndian.Uint32(hdr[17:21]); got != want {
		return f, nil, fmt.Errorf("%w: header checksum %#x, want %#x", ErrMalformedMuxFrame, got, want)
	}
	typ, id := hdr[0], binary.LittleEndian.Uint64(hdr[1:9])
	if typ != MuxFrameRequest && typ != MuxFrameResponse {
		return f, nil, fmt.Errorf("%w: unknown frame type %d", ErrMalformedMuxFrame, typ)
	}
	ln := int(binary.LittleEndian.Uint32(hdr[9:13]))
	if maxPayload := limit(); ln < 1 || ln > maxPayload {
		return f, nil, fmt.Errorf("%w: payload length %d outside [1, %d]", ErrMalformedMuxFrame, ln, maxPayload)
	}
	// ln is the peer's word until the bytes arrive, so room is reserved only
	// as far as growLimit lets what has arrived justify. A payload up to
	// streamSlack (every op frame) still lands in one buffer with no copy; a
	// longer one in a handful, the copying linear.
	var payload []byte
	for have := 0; have < ln; {
		if room := min(ln, growLimit(have)); room > cap(payload) {
			var grown []byte
			var gbuf *buffer
			if pooled {
				gbuf = getBuf(room)
				grown = gbuf.b[:cap(gbuf.b)]
			} else {
				grown = make([]byte, room)
			}
			copy(grown, payload[:have])
			buf.release()
			payload, buf = grown, gbuf
		}
		stop := min(ln, cap(payload))
		got, err := io.ReadFull(r, payload[have:stop])
		have += got
		if err != nil {
			buf.release()
			return f, nil, malformed(ErrMalformedMuxFrame, "truncated frame payload", err)
		}
	}
	payload = payload[:ln]
	if pooled {
		buf.b = payload
	}
	f = MuxFrame{Type: typ, ID: id, Payload: payload, sum: binary.LittleEndian.Uint32(hdr[13:17])}
	if got, want := muxChecksum(payload), f.sum; got != want {
		return f, buf, fmt.Errorf("%w: request %d: payload checksum %#x, want %#x",
			ErrMuxPayloadChecksum, id, got, want)
	}
	return f, buf, nil
}
