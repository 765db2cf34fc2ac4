package fv

import (
	"fmt"
	"io"

	"repro/internal/keyio"
	"repro/internal/rlwe"
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
		return rlwe.ReadSecretKey(r, params.TrQ, params.QMods, params.N())
	})
}

// WritePublicKeyV2 serializes a public key with the checksum trailer.
func WritePublicKeyV2(w io.Writer, params *Params, pk *PublicKey) error {
	return keyio.WriteKey(w, fvScheme, params.Cfg, func(w io.Writer) error {
		return rlwe.WritePublicKey(w, params.QMods, params.N(), pk)
	})
}

// ReadPublicKey reads a public key and its parameters. A damaged file fails
// with an error wrapping ErrCorruptKey.
func ReadPublicKey(r io.Reader) (*Params, *PublicKey, error) {
	return keyio.ReadKey(r, fvScheme, NewParams, func(r io.Reader, params *Params) (*PublicKey, error) {
		return rlwe.ReadPublicKey(r, params.QMods, params.N())
	})
}

// readRelinKeyBody refuses a key an evaluator or the co-processor could not
// use. The container's trailer is a checksum, not a MAC — anyone can re-stamp
// a body — and an imported key goes straight to the digit loop, so the four
// meta words must be exactly what WriteRelinKeyV2 writes: (0, 0, ℓ, ℓ) with
// ℓ = QCount. The first two once named a gadget variant and its digit
// width; a word naming any variant but the RNS gadget is refused here, not
// in a worker goroutine.
func readRelinKeyBody(r io.Reader, params *Params) (*RelinKey, error) {
	meta, err := keyio.ReadWords(r, 4)
	if err != nil {
		return nil, err
	}
	count := params.Cfg.QCount
	if [4]uint32(meta) != [4]uint32{0, 0, uint32(count), uint32(count)} {
		return nil, fmt.Errorf("fv: relin key meta words %v; params need the RNS gadget's [0 0 %d %d]", meta, count, count)
	}
	rk := &RelinKey{}
	rk.Rlk0Hat, rk.Rlk1Hat, err = keyio.ReadPairs(r, params.QMods, params.N(), count)
	return rk, err
}

// WriteRelinKeyV2 serializes a relinearization key with the checksum
// trailer: the meta words (0, 0, ℓ, ℓ) — gadget variant, digit width, digit
// count and component count, of which only the RNS gadget is left — then
// the component pairs.
func WriteRelinKeyV2(w io.Writer, params *Params, rk *RelinKey) error {
	return keyio.WriteKey(w, fvScheme, params.Cfg, func(w io.Writer) error {
		ell := uint32(len(rk.Rlk0Hat))
		if err := keyio.WriteWords(w, 0, 0, ell, ell); err != nil {
			return err
		}
		return keyio.WritePairs(w, params.QMods, params.N(), rk.Rlk0Hat, rk.Rlk1Hat)
	})
}

// ReadRelinKey reads a relinearization key and its parameters. A damaged
// file fails with an error wrapping ErrCorruptKey.
func ReadRelinKey(r io.Reader) (*Params, *RelinKey, error) {
	return keyio.ReadKey(r, fvScheme, NewParams, readRelinKeyBody)
}

// readGaloisKeyBody holds a Galois key to the same bar as an RNS-gadget
// relin key: a valid element and exactly one component per q prime.
func readGaloisKeyBody(r io.Reader, params *Params) (*GaloisKey, error) {
	meta, err := keyio.ReadWords(r, 2)
	if err != nil {
		return nil, err
	}
	g := int(meta[0])
	if err := rlwe.CheckGaloisElement(g, params.N()); err != nil {
		return nil, err
	}
	if int(meta[1]) != params.Cfg.QCount {
		return nil, fmt.Errorf("fv: Galois key with %d components, params need %d", meta[1], params.Cfg.QCount)
	}
	k0, k1, err := keyio.ReadPairs(r, params.QMods, params.N(), params.Cfg.QCount)
	return &GaloisKey{G: g, Ks0Hat: k0, Ks1Hat: k1}, err
}

// WriteGaloisKeyV2 serializes a Galois key with the checksum trailer — the
// container key-state migration ships between cluster nodes.
func WriteGaloisKeyV2(w io.Writer, params *Params, gk *GaloisKey) error {
	return keyio.WriteKey(w, fvScheme, params.Cfg, func(w io.Writer) error {
		if err := keyio.WriteWords(w, uint32(gk.G), uint32(len(gk.Ks0Hat))); err != nil {
			return err
		}
		return keyio.WritePairs(w, params.QMods, params.N(), gk.Ks0Hat, gk.Ks1Hat)
	})
}

// ReadGaloisKey reads a Galois key and its parameters. A damaged container
// fails with an error wrapping ErrCorruptKey.
func ReadGaloisKey(r io.Reader) (*Params, *GaloisKey, error) {
	return keyio.ReadKey(r, fvScheme, NewParams, readGaloisKeyBody)
}
