package ckks

import (
	"io"

	"repro/internal/keyio"
	"repro/internal/rlwe"
)

// Key and parameter serialization through the shared scheme-tagged container
// (internal/keyio, which also owns the JSON header and the row packing): every
// file starts with a self-describing header carrying the Config, residues are
// 32-bit words, and the file ("CKk2") ends in the FNV-64a checksum trailer — a
// truncated or bit-flipped file fails with ErrCorruptKey instead of silently
// yielding keys that rotate garbage into every slot.
//
// The magic doubles as the scheme tag, so a BFV key file can never parse as
// a CKKS key (and vice versa): the container rejects the foreign magic
// before any payload bytes are interpreted.

// ErrCorruptKey reports that a key file failed validation. It is the
// shared keyio sentinel, so errors.Is works across scheme boundaries.
var ErrCorruptKey = keyio.ErrCorruptKey

// ckksScheme tags CKKS key files in the shared container.
var ckksScheme = keyio.Scheme{V2: [4]byte{'C', 'K', 'k', '2'}}

// WriteSecretKeyV2 serializes a secret key with the checksum trailer.
func WriteSecretKeyV2(w io.Writer, params *Params, sk *SecretKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		return keyio.WriteRows(w, params.AllMods, params.N(), sk.S)
	})
}

// ReadSecretKey reads a secret key and its parameters. A damaged file fails
// with an error wrapping ErrCorruptKey.
func ReadSecretKey(r io.Reader) (*Params, *SecretKey, error) {
	return keyio.ReadKey(r, ckksScheme, NewParams, func(r io.Reader, params *Params) (*SecretKey, error) {
		return rlwe.ReadSecretKey(r, params.Tr, params.AllMods, params.N())
	})
}

// WritePublicKeyV2 serializes a public key with the checksum trailer.
func WritePublicKeyV2(w io.Writer, params *Params, pk *PublicKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		return rlwe.WritePublicKey(w, params.QMods, params.N(), pk)
	})
}

// ReadPublicKey reads a public key and its parameters.
func ReadPublicKey(r io.Reader) (*Params, *PublicKey, error) {
	return keyio.ReadKey(r, ckksScheme, NewParams, func(r io.Reader, params *Params) (*PublicKey, error) {
		return rlwe.ReadPublicKey(r, params.QMods, params.N())
	})
}

// writeKeyBody writes an evaluation-key body: the one top-level key, its
// L+1 digit pairs over KSMods[L]. The retired per-level layout (a level
// count, then one bundle per level) is longer, so readKeyBody leaves its
// bytes where the checksum trailer belongs and the file is ErrCorruptKey.
func writeKeyBody(w io.Writer, params *Params, v *levelViews) error {
	top := params.MaxLevel()
	return keyio.WritePairs(w, params.KSMods[top], params.N(), v.At(top).Ks0Hat, v.At(top).Ks1Hat)
}

func readKeyBody(r io.Reader, params *Params) (levelViews, error) {
	top := params.MaxLevel()
	k0, k1, err := keyio.ReadPairs(r, params.KSMods[top], params.N(), top+1)
	if err != nil {
		return levelViews{}, err
	}
	return params.cutLevels(k0, k1), nil
}

// WriteRelinKeyV2 serializes a relinearization key with the checksum
// trailer.
func WriteRelinKeyV2(w io.Writer, params *Params, rk *RelinKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		return writeKeyBody(w, params, &rk.levelViews)
	})
}

// ReadRelinKey reads a relinearization key and its parameters.
func ReadRelinKey(r io.Reader) (*Params, *RelinKey, error) {
	return keyio.ReadKey(r, ckksScheme, NewParams, func(r io.Reader, params *Params) (*RelinKey, error) {
		v, err := readKeyBody(r, params)
		return &RelinKey{v}, err
	})
}

// WriteGaloisKeyV2 serializes a Galois key with the checksum trailer: the
// element (and one word of padding), then the key.
func WriteGaloisKeyV2(w io.Writer, params *Params, gk *GaloisKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		if err := keyio.WriteWords(w, uint32(gk.G), 0); err != nil {
			return err
		}
		return writeKeyBody(w, params, &gk.levelViews)
	})
}

// ReadGaloisKey reads a Galois key and its parameters.
func ReadGaloisKey(r io.Reader) (*Params, *GaloisKey, error) {
	return keyio.ReadKey(r, ckksScheme, NewParams, func(r io.Reader, params *Params) (*GaloisKey, error) {
		meta, err := keyio.ReadWords(r, 2) // element, one word of padding
		if err != nil {
			return nil, err
		}
		if err := rlwe.CheckGaloisElement(int(meta[0]), params.N()); err != nil {
			return nil, err
		}
		v, err := readKeyBody(r, params)
		return &GaloisKey{G: int(meta[0]), levelViews: v}, err
	})
}
