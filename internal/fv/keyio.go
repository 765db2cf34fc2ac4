package fv

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/keyio"
)

// Key and parameter serialization. Every file starts with a self-describing
// header carrying the Config, so the CLI tools can rebuild matching Params
// without out-of-band coordination. Residues are stored as 32-bit words
// (the 30-bit primes fit), the same packing the DMA transfers use.
//
// Files are written in the checksummed container of internal/keyio ("FVk2":
// magic, header, payload, FNV-64a trailer over everything before it), shared
// with the CKKS binding; keyio also owns the JSON header convention and the
// row packing. A truncated or bit-flipped file fails with ErrCorruptKey
// instead of silently yielding a key that decrypts garbage (or worse, a relin
// key that corrupts every Mult). The scheme tag rides in the magic, so a CKKS
// key file can never parse as a BFV key. This file keeps the BFV-specific
// payload layouts.

// ErrCorruptKey reports that a key file failed validation: a checksum
// mismatch, a truncation, or a structurally invalid body. The file must be
// regenerated or re-fetched; retrying the parse cannot help. It is the
// shared keyio sentinel, so errors.Is works across scheme boundaries.
var ErrCorruptKey = keyio.ErrCorruptKey

// fvScheme tags BFV key files in the shared container.
var fvScheme = keyio.Scheme{V2: [4]byte{'F', 'V', 'k', '2'}}

// WriteSecretKeyV2 serializes a secret key with the checksum trailer.
func WriteSecretKeyV2(w io.Writer, params *Params, sk *SecretKey) error {
	return keyio.WriteKey(w, fvScheme, params.Cfg, func(w io.Writer) error {
		return keyio.WriteRows(w, params.QMods, params.N(), sk.S)
	})
}

// ReadSecretKey reads a secret key and its parameters. A damaged file fails
// with an error wrapping ErrCorruptKey.
func ReadSecretKey(r io.Reader) (*Params, *SecretKey, error) {
	return keyio.ReadKey(r, fvScheme, NewParams, func(r io.Reader, params *Params) (*SecretKey, error) {
		s, err := keyio.ReadRows(r, params.QMods, params.N())
		if err != nil {
			return nil, err
		}
		sHat := s.Clone()
		params.TrQ.Forward(sHat)
		return &SecretKey{S: s, SHat: sHat}, nil
	})
}

// WritePublicKeyV2 serializes a public key with the checksum trailer.
func WritePublicKeyV2(w io.Writer, params *Params, pk *PublicKey) error {
	return keyio.WriteKey(w, fvScheme, params.Cfg, func(w io.Writer) error {
		if err := keyio.WriteRows(w, params.QMods, params.N(), pk.P0Hat); err != nil {
			return err
		}
		return keyio.WriteRows(w, params.QMods, params.N(), pk.P1Hat)
	})
}

// ReadPublicKey reads a public key and its parameters. A damaged file fails
// with an error wrapping ErrCorruptKey.
func ReadPublicKey(r io.Reader) (*Params, *PublicKey, error) {
	return keyio.ReadKey(r, fvScheme, NewParams, func(r io.Reader, params *Params) (*PublicKey, error) {
		p0, err := keyio.ReadRows(r, params.QMods, params.N())
		if err != nil {
			return nil, err
		}
		p1, err := keyio.ReadRows(r, params.QMods, params.N())
		if err != nil {
			return nil, err
		}
		return &PublicKey{P0Hat: p0, P1Hat: p1}, nil
	})
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
	return keyio.WritePairs(w, params.QMods, params.N(), rk.Rlk0Hat, rk.Rlk1Hat)
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
	var err error
	rk.Rlk0Hat, rk.Rlk1Hat, err = keyio.ReadPairs(r, params.QMods, params.N(), int(count))
	return rk, err
}

// WriteRelinKeyV2 serializes a relinearization key with the checksum
// trailer.
func WriteRelinKeyV2(w io.Writer, params *Params, rk *RelinKey) error {
	return keyio.WriteKey(w, fvScheme, params.Cfg, func(w io.Writer) error {
		return writeRelinKeyBody(w, params, rk)
	})
}

// ReadRelinKey reads a relinearization key and its parameters. A damaged
// file fails with an error wrapping ErrCorruptKey.
func ReadRelinKey(r io.Reader) (*Params, *RelinKey, error) {
	return keyio.ReadKey(r, fvScheme, NewParams, readRelinKeyBody)
}

func writeGaloisKeyBody(w io.Writer, params *Params, gk *GaloisKey) error {
	var meta [8]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(gk.G))
	binary.LittleEndian.PutUint32(meta[4:], uint32(len(gk.Ks0Hat)))
	if _, err := w.Write(meta[:]); err != nil {
		return err
	}
	return keyio.WritePairs(w, params.QMods, params.N(), gk.Ks0Hat, gk.Ks1Hat)
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
	k0, k1, err := keyio.ReadPairs(r, params.QMods, params.N(), int(count))
	return &GaloisKey{G: g, Ks0Hat: k0, Ks1Hat: k1}, err
}

// WriteGaloisKeyV2 serializes a Galois key with the checksum trailer — the
// container key-state migration ships between cluster nodes.
func WriteGaloisKeyV2(w io.Writer, params *Params, gk *GaloisKey) error {
	return keyio.WriteKey(w, fvScheme, params.Cfg, func(w io.Writer) error {
		return writeGaloisKeyBody(w, params, gk)
	})
}

// ReadGaloisKey reads a Galois key and its parameters. A damaged container
// fails with an error wrapping ErrCorruptKey.
func ReadGaloisKey(r io.Reader) (*Params, *GaloisKey, error) {
	return keyio.ReadKey(r, fvScheme, NewParams, readGaloisKeyBody)
}
