package keyio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/poly"
	"repro/internal/ring"
)

var testScheme = Scheme{V2: [4]byte{'T', 'S', 'k', '2'}}

// otherScheme shares the container layout but not the magic: its files must
// never parse under testScheme.
var otherScheme = Scheme{V2: [4]byte{'X', 'X', 'k', '2'}}

func writeTestFile(t *testing.T, s Scheme, header, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := WriteChecked(&buf, s, header, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// readFixed reads files whose payload length is known (the realistic case:
// schemes always know their payload shape from the header).
func readFixed(data []byte, s Scheme, payloadLen int) (hdr, body []byte, err error) {
	return Read(bytes.NewReader(data), s,
		func(blob []byte) ([]byte, error) { return blob, nil },
		func(r io.Reader, _ []byte) ([]byte, error) {
			body := make([]byte, payloadLen)
			_, err := io.ReadFull(r, body)
			return body, err
		})
}

func TestRoundTripChecked(t *testing.T) {
	header := []byte(`{"n":256}`)
	payload := []byte("payload-bytes")
	data := writeTestFile(t, testScheme, header, payload)
	hdr, body, err := readFixed(data, testScheme, len(payload))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(hdr, header) || !bytes.Equal(body, payload) {
		t.Fatalf("round trip mismatch: header %q body %q", hdr, body)
	}
}

// Every single-byte flip past the magic must fail the v2 checksum; nothing
// may load as a (wrong) file.
func TestCheckedBitFlip(t *testing.T) {
	payload := []byte("payload-bytes")
	data := writeTestFile(t, testScheme, []byte(`{"n":1}`), payload)
	for off := 4; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		_, _, err := readFixed(bad, testScheme, len(payload))
		if err == nil {
			t.Fatalf("flip at offset %d: loaded successfully", off)
		}
		if !errors.Is(err, ErrCorruptKey) {
			t.Fatalf("flip at offset %d: got %v, want ErrCorruptKey", off, err)
		}
	}
}

// Every truncation of a v2 file must fail with ErrCorruptKey (short magic
// excepted: that is not yet identifiable as a v2 file).
func TestCheckedTruncation(t *testing.T) {
	payload := []byte("payload-bytes")
	data := writeTestFile(t, testScheme, []byte(`{"n":1}`), payload)
	for ln := 4; ln < len(data); ln++ {
		_, _, err := readFixed(data[:ln], testScheme, len(payload))
		if err == nil {
			t.Fatalf("truncation to %d bytes: loaded successfully", ln)
		}
		if !errors.Is(err, ErrCorruptKey) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorruptKey", ln, err)
		}
	}
}

// A file of a different scheme — same container, different magic — must be
// rejected up front, and so must the scheme's own retired v1 container (the
// same bytes under a "...1" magic, without the trailer): nothing unchecksummed
// loads any more.
func TestSchemeTagRejected(t *testing.T) {
	payload := []byte("body")
	foreign := writeTestFile(t, otherScheme, []byte(`{}`), payload)
	v2 := writeTestFile(t, testScheme, []byte(`{}`), payload)
	v1 := bytes.Clone(v2[:len(v2)-8])
	v1[3] = '1'
	for name, data := range map[string][]byte{"foreign scheme": foreign, "v1 container": v1} {
		if _, _, err := readFixed(data, testScheme, len(payload)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: got %v, want ErrBadMagic", name, err)
		}
	}
}

func TestHeaderBlobBound(t *testing.T) {
	if err := WriteHeaderBlob(io.Discard, make([]byte, maxHeaderBytes+1)); err == nil {
		t.Fatal("oversized header blob accepted on write")
	}
	var frame bytes.Buffer
	frame.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadHeaderBlob(&frame); err == nil {
		t.Fatal("implausible header length accepted on read")
	}
}

// testCfg stands in for a scheme's Config: the JSON header a key file opens
// with, and everything the reader needs to rebuild the row shape.
type testCfg struct {
	N      int
	Primes []uint64
}

func (c testCfg) mods() []ring.Modulus {
	mods := make([]ring.Modulus, len(c.Primes))
	for i, q := range c.Primes {
		mods[i] = ring.NewModulus(q)
	}
	return mods
}

// TestKeyFileRows: WriteKey/ReadKey carry the Config as the JSON header and
// hand the rebuilt parameters to the payload reader; WriteRows/ReadRows move a
// polynomial as 32-bit words per residue, refuse a shape that is not the
// announced one on write and a residue outside its modulus on read — which
// surfaces, like every failure past the magic, as ErrCorruptKey.
func TestKeyFileRows(t *testing.T) {
	cfg := testCfg{N: 12, Primes: []uint64{1073479681, 1073184769}} // 12: the row kernels' tail path too
	x := poly.NewRNSPoly(cfg.mods(), cfg.N)
	for ri, row := range x.Rows {
		for i := range row.Coeffs {
			row.Coeffs[i] = row.Mod.Q - 1 - uint64(7*i+ri)
		}
	}
	var file bytes.Buffer
	err := WriteKey(&file, testScheme, cfg, func(w io.Writer) error {
		return WriteRows(w, cfg.mods(), cfg.N, x)
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(data []byte) (poly.RNSPoly, error) {
		_, got, err := ReadKey(bytes.NewReader(data), testScheme,
			func(c testCfg) ([]ring.Modulus, error) { return c.mods(), nil },
			func(r io.Reader, mods []ring.Modulus) (poly.RNSPoly, error) { return ReadRows(r, mods, cfg.N) })
		return got, err
	}
	got, err := read(file.Bytes())
	if err != nil || !got.Equal(x) {
		t.Fatalf("round trip: %v, equal %v", err, got.Equal(x))
	}
	if want := 4 + 4 + len(`{"N":12,"Primes":[1073479681,1073184769]}`) + 2*cfg.N*4 + 8; file.Len() != want {
		t.Fatalf("file of %d bytes, want %d: one 32-bit word per residue", file.Len(), want)
	}

	// A residue equal to its modulus, in the last word of the last row. The
	// checksum is rewritten to match, so it is the range check that refuses.
	bad := bytes.Clone(file.Bytes())
	binary.LittleEndian.PutUint32(bad[len(bad)-12:], uint32(cfg.Primes[1]))
	var fixed bytes.Buffer
	if err := WriteChecked(&fixed, testScheme, []byte(`{"N":12,"Primes":[1073479681,1073184769]}`), func(w io.Writer) error {
		_, err := w.Write(bad[len(bad)-8-2*cfg.N*4 : len(bad)-8])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := read(fixed.Bytes()); !errors.Is(err, ErrCorruptKey) {
		t.Fatalf("out-of-range residue: got %v, want ErrCorruptKey", err)
	}
	if _, err := read(bytes.Replace(file.Bytes(), []byte(`"N"`), []byte(`"N`+"\x00"), 1)); !errors.Is(err, ErrCorruptKey) {
		t.Fatalf("header that is not JSON: got %v, want ErrCorruptKey", err)
	}
	for name, shape := range map[string]poly.RNSPoly{
		"one row short":  {Rows: x.Rows[:1]},
		"another degree": poly.NewRNSPoly(cfg.mods(), 2*cfg.N),
	} {
		if err := WriteRows(io.Discard, cfg.mods(), cfg.N, shape); err == nil {
			t.Errorf("WriteRows wrote a polynomial %s", name)
		}
	}
}

// TestMetaWords: a payload's meta words are little-endian uint32s, byte for
// byte what the schemes' hand-packed headers were, and a short read is an
// error.
func TestMetaWords(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWords(&buf, 1, 30, 7, 0xfffffffe); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 0, 0, 0, 30, 0, 0, 0, 7, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteWords wrote % x, want % x", buf.Bytes(), want)
	}
	got, err := ReadWords(&buf, 4)
	if err != nil || got[0] != 1 || got[1] != 30 || got[2] != 7 || got[3] != 0xfffffffe {
		t.Fatalf("ReadWords = %v, %v", got, err)
	}
	if _, err := ReadWords(bytes.NewReader(want[:15]), 4); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short meta read returned %v", err)
	}
}
