package keyio

import (
	"bytes"
	"errors"
	"io"
	"testing"
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
	v, err := Read(bytes.NewReader(data), s,
		func(blob []byte) (any, error) { return blob, nil },
		func(r io.Reader, _ any) error {
			body = make([]byte, payloadLen)
			_, err := io.ReadFull(r, body)
			return err
		})
	if err != nil {
		return nil, nil, err
	}
	return v.([]byte), body, nil
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
