// Package keyio is the scheme-tagged key-file container shared by the
// scheme bindings (internal/fv, internal/ckks). A key file is
//
//	magic (4 bytes) · header length (4 bytes LE) · header blob · payload ·
//	FNV-64a checksum (8 bytes LE) over everything before it
//
// The magic carries the scheme tag ("FVk2" for BFV, "CKk2" for CKKS), so a
// CKKS key can never parse as a BFV key: the magic is the first thing a
// reader checks. The unchecksummed first version of the container ("FVk1",
// "CKk1": the same bytes without the trailer) is no longer read or written;
// its magic is refused like any other foreign one.
//
// The container owns the framing and the integrity check, the header
// convention both schemes use (WriteKey, ReadKey: the header blob is the
// scheme's Config as JSON, from which the reader rebuilds the parameter set),
// the packing of a payload's meta words (WriteWords, ReadWords) and of a
// polynomial's residue rows (WriteRows, ReadRows: 32-bit words, as on the
// wire); the scheme owns its Config, what its meta words mean and the order
// of the polynomials in the payload, so every scheme gets the same
// ErrCorruptKey hardening for free.
package keyio

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"

	"repro/internal/poly"
	"repro/internal/ring"
)

// ErrCorruptKey reports that a checksummed key file failed validation: a
// checksum mismatch, a truncation, or a structurally invalid body. The file
// must be regenerated or re-fetched; retrying the parse cannot help.
var ErrCorruptKey = errors.New("keyio: corrupt key file")

// ErrBadMagic reports that the stream does not start with the scheme's
// magic — it is not a key file of this scheme at all.
var ErrBadMagic = errors.New("keyio: not a key file")

// Scheme names the magic of one scheme's key files.
type Scheme struct {
	V2 [4]byte
}

// maxHeaderBytes bounds the length-prefixed header blob; a frame claiming
// more is corrupt (or not a key file).
const maxHeaderBytes = 1 << 16

// Corrupt wraps a decode failure as ErrCorruptKey. EOF mid-body is a
// truncated file, not a clean end.
func Corrupt(err error) error {
	if errors.Is(err, ErrCorruptKey) {
		return err
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %w", ErrCorruptKey, err)
}

// hashingWriter tees everything written through it into an FNV state.
type hashingWriter struct {
	w io.Writer
	h hash.Hash64
}

func (hw *hashingWriter) Write(p []byte) (int, error) {
	hw.h.Write(p) // hash.Hash never errors
	return hw.w.Write(p)
}

// hashingReader accumulates everything read through it into an FNV state.
type hashingReader struct {
	r io.Reader
	h hash.Hash64
}

func (hr *hashingReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	hr.h.Write(p[:n])
	return n, err
}

// WriteHeaderBlob writes the 4-byte little-endian length prefix and the
// header blob itself (the scheme's serialized Config).
func WriteHeaderBlob(w io.Writer, blob []byte) error {
	if len(blob) > maxHeaderBytes {
		return fmt.Errorf("keyio: header blob of %d bytes exceeds %d", len(blob), maxHeaderBytes)
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(blob)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := w.Write(blob)
	return err
}

// ReadHeaderBlob reads a length-prefixed header blob.
func ReadHeaderBlob(r io.Reader) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, err
	}
	ln := binary.LittleEndian.Uint32(n[:])
	if ln > maxHeaderBytes {
		return nil, fmt.Errorf("implausible header length %d", ln)
	}
	blob := make([]byte, ln)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// WriteChecked writes a key file: magic + header + payload, all folded into
// an FNV-64a checksum appended as an 8-byte little-endian trailer (the
// trailer itself is not hashed).
func WriteChecked(w io.Writer, s Scheme, header []byte, payload func(io.Writer) error) error {
	hw := &hashingWriter{w: w, h: fnv.New64a()}
	if _, err := hw.Write(s.V2[:]); err != nil {
		return err
	}
	if err := WriteHeaderBlob(hw, header); err != nil {
		return err
	}
	if err := payload(hw); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], hw.h.Sum64())
	_, err := w.Write(sum[:])
	return err
}

// Read checks the file magic, then re-computes the checksum while parsing
// and compares it to the trailer. header parses the scheme's header blob into
// its parameter object; payload parses the body under those parameters into
// the key. Every failure past the magic — including a structurally valid
// prefix cut short — wraps ErrCorruptKey; a stream that starts with any other
// magic fails with ErrBadMagic.
func Read[P, K any](r io.Reader, s Scheme, header func([]byte) (P, error), payload func(io.Reader, P) (K, error)) (P, K, error) {
	var (
		noParams P
		noKey    K
		magic    [4]byte
	)
	fail := func(err error) (P, K, error) { return noParams, noKey, err }
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fail(err)
	}
	if magic != s.V2 {
		return fail(fmt.Errorf("%w (magic %q)", ErrBadMagic, magic[:]))
	}
	hr := &hashingReader{r: r, h: fnv.New64a()}
	hr.h.Write(magic[:])
	blob, err := ReadHeaderBlob(hr)
	if err != nil {
		return fail(Corrupt(err))
	}
	params, err := header(blob)
	if err != nil {
		return fail(Corrupt(err))
	}
	key, err := payload(hr, params)
	if err != nil {
		return fail(Corrupt(err))
	}
	want := hr.h.Sum64()
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return fail(Corrupt(fmt.Errorf("reading checksum trailer: %w", err)))
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != want {
		return fail(fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrCorruptKey, got, want))
	}
	return params, key, nil
}

// WriteKey writes a key file whose header is cfg, the scheme's Config, as
// JSON — self-describing, so a reader rebuilds matching parameters without
// out-of-band coordination.
func WriteKey(w io.Writer, s Scheme, cfg any, payload func(io.Writer) error) error {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return WriteChecked(w, s, blob, payload)
}

// ReadKey reads a key file written by WriteKey: newParams rebuilds the
// parameter set from the header's Config, payload parses the key under it.
func ReadKey[C, P, K any](r io.Reader, s Scheme, newParams func(C) (P, error), payload func(io.Reader, P) (K, error)) (P, K, error) {
	return Read(r, s, func(blob []byte) (params P, err error) {
		var cfg C
		if err = json.Unmarshal(blob, &cfg); err == nil {
			params, err = newParams(cfg)
		}
		return params, err
	}, payload)
}

// WriteWords writes a payload's meta words — whatever a scheme's layout puts
// ahead of its polynomials: a relin key's digit count, a Galois element, a
// level count — as little-endian uint32s.
func WriteWords(w io.Writer, words ...uint32) error {
	buf := make([]byte, 0, 4*len(words))
	for _, v := range words {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	_, err := w.Write(buf)
	return err
}

// ReadWords reads count meta words written by WriteWords.
func ReadWords(r io.Reader, count int) ([]uint32, error) {
	words := make([]uint32, count)
	if err := binary.Read(r, binary.LittleEndian, words); err != nil {
		return nil, err
	}
	return words, nil
}

// WriteRows writes x, a polynomial of n coefficients over mods, as its
// residue rows of 32-bit words (the 30-bit primes fit) — the packing the DMA
// transfers and the ciphertext codec use.
func WriteRows(w io.Writer, mods []ring.Modulus, n int, x poly.RNSPoly) error {
	if x.Level() != len(mods) || x.N() != n {
		return fmt.Errorf("keyio: polynomial shape mismatch on write")
	}
	buf := make([]byte, n*4)
	for _, row := range x.Rows {
		row.PackWords(buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadRows reads a polynomial of n coefficients over mods written by
// WriteRows, refusing a residue outside its modulus.
func ReadRows(r io.Reader, mods []ring.Modulus, n int) (poly.RNSPoly, error) {
	out := poly.NewRNSPoly(mods, n)
	buf := make([]byte, n*4)
	for ri, m := range mods {
		if _, err := io.ReadFull(r, buf); err != nil {
			return poly.RNSPoly{}, err
		}
		if bad, ok := out.Rows[ri].UnpackWords(buf); !ok {
			return poly.RNSPoly{}, fmt.Errorf("keyio: residue %d out of range for modulus %d", bad, m.Q)
		}
	}
	return out, nil
}

// WritePairs writes a key-switching key's digits — the polynomial pairs
// (k0[i], k1[i]) over mods — through WriteRows, k0[i] before k1[i].
func WritePairs(w io.Writer, mods []ring.Modulus, n int, k0, k1 []poly.RNSPoly) error {
	for i := range k0 {
		if err := WriteRows(w, mods, n, k0[i]); err != nil {
			return err
		}
		if err := WriteRows(w, mods, n, k1[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadPairs reads count pairs written by WritePairs.
func ReadPairs(r io.Reader, mods []ring.Modulus, n, count int) (k0, k1 []poly.RNSPoly, err error) {
	for i := 0; i < count; i++ {
		p0, err := ReadRows(r, mods, n)
		if err != nil {
			return nil, nil, err
		}
		p1, err := ReadRows(r, mods, n)
		if err != nil {
			return nil, nil, err
		}
		k0, k1 = append(k0, p0), append(k1, p1)
	}
	return k0, k1, nil
}
