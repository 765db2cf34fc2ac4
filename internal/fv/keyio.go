package fv

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/keyio"
	"repro/internal/poly"
)

// Key and parameter serialization. Every file starts with a self-describing
// header carrying the Config, so the CLI tools can rebuild matching Params
// without out-of-band coordination. Residues are stored as 32-bit words
// (the 30-bit primes fit), the same packing the DMA transfers use.
//
// Files are written in the checksummed container of internal/keyio ("FVk2":
// magic, header, payload, FNV-64a trailer over everything before it), shared
// with the CKKS binding. A truncated or bit-flipped file fails with
// ErrCorruptKey instead of silently yielding a key that decrypts garbage (or
// worse, a relin key that corrupts every Mult). The scheme tag rides in the
// magic, so a CKKS key file can never parse as a BFV key. This file keeps
// the BFV-specific header semantics and payload layouts.

// ErrCorruptKey reports that a key file failed validation: a checksum
// mismatch, a truncation, or a structurally invalid body. The file must be
// regenerated or re-fetched; retrying the parse cannot help. It is the
// shared keyio sentinel, so errors.Is works across scheme boundaries.
var ErrCorruptKey = keyio.ErrCorruptKey

// fvScheme tags BFV key files in the shared container.
var fvScheme = keyio.Scheme{V2: [4]byte{'F', 'V', 'k', '2'}}

func paramsFromHeader(blob []byte) (*Params, error) {
	var cfg Config
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return nil, err
	}
	return NewParams(cfg)
}

// writeChecked writes a key file through the shared container: magic +
// header + body, all folded into the FNV-64a trailer.
func writeChecked(w io.Writer, params *Params, body func(io.Writer) error) error {
	blob, err := json.Marshal(params.Cfg)
	if err != nil {
		return err
	}
	return keyio.WriteChecked(w, fvScheme, blob, body)
}

// readKey reads a key file through the shared container, which re-computes
// the checksum while parsing and compares it to the trailer. Every failure
// past the magic — including a structurally valid prefix cut short — wraps
// ErrCorruptKey.
func readKey(r io.Reader, body func(io.Reader, *Params) error) (*Params, error) {
	v, err := keyio.Read(r, fvScheme,
		func(blob []byte) (any, error) { return paramsFromHeader(blob) },
		func(r io.Reader, params any) error { return body(r, params.(*Params)) })
	if err != nil {
		return nil, err
	}
	return v.(*Params), nil
}

func writeRNSPoly(w io.Writer, params *Params, p poly.RNSPoly) error {
	if p.Level() != params.QBasis.K() || p.N() != params.N() {
		return fmt.Errorf("fv: polynomial shape mismatch on write")
	}
	buf := make([]byte, params.N()*4)
	for _, row := range p.Rows {
		for i, v := range row.Coeffs {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readRNSPoly(r io.Reader, params *Params) (poly.RNSPoly, error) {
	out := poly.NewRNSPoly(params.QMods, params.N())
	buf := make([]byte, params.N()*4)
	for ri, m := range params.QMods {
		if _, err := io.ReadFull(r, buf); err != nil {
			return poly.RNSPoly{}, err
		}
		for i := range out.Rows[ri].Coeffs {
			v := uint64(binary.LittleEndian.Uint32(buf[i*4:]))
			if v >= m.Q {
				return poly.RNSPoly{}, fmt.Errorf("fv: residue %d out of range for modulus %d", v, m.Q)
			}
			out.Rows[ri].Coeffs[i] = v
		}
	}
	return out, nil
}

// WriteSecretKeyV2 serializes a secret key with the checksum trailer.
func WriteSecretKeyV2(w io.Writer, params *Params, sk *SecretKey) error {
	return writeChecked(w, params, func(w io.Writer) error {
		return writeRNSPoly(w, params, sk.S)
	})
}

// ReadSecretKey reads a secret key and its parameters. A damaged file fails
// with an error wrapping ErrCorruptKey.
func ReadSecretKey(r io.Reader) (*Params, *SecretKey, error) {
	var sk *SecretKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		s, err := readRNSPoly(r, params)
		if err != nil {
			return err
		}
		sHat := s.Clone()
		params.TrQ.Forward(sHat)
		sk = &SecretKey{S: s, SHat: sHat}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return params, sk, nil
}

// WritePublicKeyV2 serializes a public key with the checksum trailer.
func WritePublicKeyV2(w io.Writer, params *Params, pk *PublicKey) error {
	return writeChecked(w, params, func(w io.Writer) error {
		if err := writeRNSPoly(w, params, pk.P0Hat); err != nil {
			return err
		}
		return writeRNSPoly(w, params, pk.P1Hat)
	})
}

// ReadPublicKey reads a public key and its parameters. A damaged file fails
// with an error wrapping ErrCorruptKey.
func ReadPublicKey(r io.Reader) (*Params, *PublicKey, error) {
	var pk *PublicKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		p0, err := readRNSPoly(r, params)
		if err != nil {
			return err
		}
		p1, err := readRNSPoly(r, params)
		if err != nil {
			return err
		}
		pk = &PublicKey{P0Hat: p0, P1Hat: p1}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return params, pk, nil
}

func writeRelinKeyBody(w io.Writer, params *Params, rk *RelinKey) error {
	var meta [16]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(rk.Variant))
	binary.LittleEndian.PutUint32(meta[4:8], uint32(rk.LogW))
	binary.LittleEndian.PutUint32(meta[8:12], uint32(rk.Ell))
	binary.LittleEndian.PutUint32(meta[12:], uint32(len(rk.Rlk0Hat)))
	if _, err := w.Write(meta[:]); err != nil {
		return err
	}
	for i := range rk.Rlk0Hat {
		if err := writeRNSPoly(w, params, rk.Rlk0Hat[i]); err != nil {
			return err
		}
		if err := writeRNSPoly(w, params, rk.Rlk1Hat[i]); err != nil {
			return err
		}
	}
	return nil
}

func readRelinKeyBody(r io.Reader, params *Params) (*RelinKey, error) {
	var meta [16]byte
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(meta[12:])
	if count == 0 || count > 64 {
		return nil, fmt.Errorf("fv: implausible relin component count %d", count)
	}
	rk := &RelinKey{
		Variant: LiftScaleVariant(binary.LittleEndian.Uint32(meta[:4])),
		LogW:    uint(binary.LittleEndian.Uint32(meta[4:8])),
		Ell:     int(binary.LittleEndian.Uint32(meta[8:12])),
	}
	for i := uint32(0); i < count; i++ {
		p0, err := readRNSPoly(r, params)
		if err != nil {
			return nil, err
		}
		p1, err := readRNSPoly(r, params)
		if err != nil {
			return nil, err
		}
		rk.Rlk0Hat = append(rk.Rlk0Hat, p0)
		rk.Rlk1Hat = append(rk.Rlk1Hat, p1)
	}
	return rk, nil
}

// WriteRelinKeyV2 serializes a relinearization key with the checksum
// trailer.
func WriteRelinKeyV2(w io.Writer, params *Params, rk *RelinKey) error {
	return writeChecked(w, params, func(w io.Writer) error {
		return writeRelinKeyBody(w, params, rk)
	})
}

// ReadRelinKey reads a relinearization key and its parameters. A damaged
// file fails with an error wrapping ErrCorruptKey.
func ReadRelinKey(r io.Reader) (*Params, *RelinKey, error) {
	var rk *RelinKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		var err error
		rk, err = readRelinKeyBody(r, params)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return params, rk, nil
}

func writeGaloisKeyBody(w io.Writer, params *Params, gk *GaloisKey) error {
	var meta [8]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(gk.G))
	binary.LittleEndian.PutUint32(meta[4:], uint32(len(gk.Ks0Hat)))
	if _, err := w.Write(meta[:]); err != nil {
		return err
	}
	for i := range gk.Ks0Hat {
		if err := writeRNSPoly(w, params, gk.Ks0Hat[i]); err != nil {
			return err
		}
		if err := writeRNSPoly(w, params, gk.Ks1Hat[i]); err != nil {
			return err
		}
	}
	return nil
}

func readGaloisKeyBody(r io.Reader, params *Params) (*GaloisKey, error) {
	var meta [8]byte
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, err
	}
	g := int(binary.LittleEndian.Uint32(meta[:4]))
	if g%2 == 0 || g < 1 || g >= 2*params.N() {
		return nil, fmt.Errorf("fv: invalid Galois element %d in key file", g)
	}
	count := binary.LittleEndian.Uint32(meta[4:])
	if count == 0 || count > 64 {
		return nil, fmt.Errorf("fv: implausible Galois component count %d", count)
	}
	gk := &GaloisKey{G: g}
	for i := uint32(0); i < count; i++ {
		p0, err := readRNSPoly(r, params)
		if err != nil {
			return nil, err
		}
		p1, err := readRNSPoly(r, params)
		if err != nil {
			return nil, err
		}
		gk.Ks0Hat = append(gk.Ks0Hat, p0)
		gk.Ks1Hat = append(gk.Ks1Hat, p1)
	}
	return gk, nil
}

// WriteGaloisKeyV2 serializes a Galois key with the checksum trailer — the
// container key-state migration ships between cluster nodes.
func WriteGaloisKeyV2(w io.Writer, params *Params, gk *GaloisKey) error {
	return writeChecked(w, params, func(w io.Writer) error {
		return writeGaloisKeyBody(w, params, gk)
	})
}

// ReadGaloisKey reads a Galois key and its parameters. A damaged container
// fails with an error wrapping ErrCorruptKey.
func ReadGaloisKey(r io.Reader) (*Params, *GaloisKey, error) {
	var gk *GaloisKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		var err error
		gk, err = readGaloisKeyBody(r, params)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return params, gk, nil
}
