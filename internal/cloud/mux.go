package cloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Connection multiplexing ("HEAM"). The sequential framing is strictly
// request/response: one exchange in flight per connection, so a slow
// multiplication blocks every request queued behind it on that socket, and
// the only way to add concurrency is to open more connections. The mux mode
// keeps the v2 payload encodings unchanged but wraps each one in a tagged
// frame, so one connection carries many in-flight request IDs and the server
// completes them out of order as workers finish.
//
// # Session layout
//
//	client hello:  "HEAM", version byte, requested window (uint16 LE)
//	server hello:  "HEAM", version byte, granted window (uint16 LE)
//	then frames both ways, each:
//
//	  type (1) | request ID (8 LE) | payload len (4 LE) |
//	  payload checksum (8 LE) | header checksum (4 LE) | payload
//
// Both checksums are CRC-32C (Castagnoli), which the standard library runs on
// the CPU's CRC instructions on amd64 and arm64 — a 393 KB ciphertext frame is
// checked in tens of microseconds, four times per routed Mult. The payload
// field keeps the 8 bytes it had under version 1 (byte-serial FNV-1a), the
// value zero-extended; the header checksum covers the 21 bytes before it,
// that field included.
//
// The payload is a complete v2 frame (request, response, info response, or
// program response), decoded by the same hardened length-bounded decoders the
// sequential protocol uses — the mux layer adds tagging and integrity, not a
// second payload codec.
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
// The two checksums split corruption into two blast radii. A header that
// fails its checksum leaves the frame length untrusted, so the stream cannot
// be resynchronized: that error (ErrMalformedMuxFrame) is connection-fatal.
// A payload that fails its checksum under an intact header is skippable —
// the reader knows exactly how many bytes to discard and which request ID
// they belonged to — so exactly that request fails with a retryable
// ErrMuxPayloadChecksum and every other in-flight exchange proceeds.
const (
	// MuxProtoVersion is the mux session version negotiated in the hello.
	// Version 2 changed the frame checksums from FNV-1a to CRC-32C; both ends
	// ship together, so a version-1 hello is refused, not translated.
	MuxProtoVersion uint8 = 2
	// DefaultMuxWindow is the in-flight request window a client asks for.
	DefaultMuxWindow = 32
	// MaxMuxWindow caps what a server grants, whatever the client requests.
	MaxMuxWindow = 256
)

// muxMagic opens a multiplexed session; it shares the port with "HEA2"
// and is told apart by the first four bytes.
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
// type(1) + id(8) + len(4) + payload checksum(8) + header checksum(4).
const muxHeaderLen = 1 + 8 + 4 + 8 + 4

// muxHelloLen is the hello size either way: magic(4) + version(1) + window(2).
const muxHelloLen = 4 + 1 + 2

// MuxFrame is one decoded mux frame.
type MuxFrame struct {
	Type    uint8
	ID      uint64
	Payload []byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// muxChecksum is the one checksum of the mux layer, over payloads and frame
// headers alike.
func muxChecksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

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

// WriteMuxFrame frames payload under (typ, id) with both checksums and writes
// it. The caller serializes concurrent writers.
func WriteMuxFrame(w io.Writer, typ uint8, id uint64, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("cloud: empty mux payload")
	}
	var hdr [muxHeaderLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:9], id)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[13:21], uint64(muxChecksum(payload)))
	binary.LittleEndian.PutUint32(hdr[21:25], muxChecksum(hdr[:21]))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

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
	if got, want := muxChecksum(hdr[:21]), binary.LittleEndian.Uint32(hdr[21:25]); got != want {
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
	// as far as growLimit lets what has arrived justify — like cursor.next. A
	// payload up to streamSlack (every op frame) still lands in one buffer
	// with no copy; a longer one in a handful, the copying linear.
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
	f = MuxFrame{Type: typ, ID: id, Payload: payload}
	if got, want := uint64(muxChecksum(payload)), binary.LittleEndian.Uint64(hdr[13:21]); got != want {
		return f, buf, fmt.Errorf("%w: request %d: payload checksum %#x, want %#x",
			ErrMuxPayloadChecksum, id, got, want)
	}
	return f, buf, nil
}
