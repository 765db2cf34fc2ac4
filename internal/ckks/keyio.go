package ckks

import (
	"fmt"
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

// writeLevelsBody serializes a per-level key bundle: a level bitmap-style
// count, then for each present level its digit pairs over that level's
// extended rows.
func writeLevelsBody(w io.Writer, params *Params, levels []*LevelKey) error {
	if err := keyio.WriteWords(w, uint32(len(levels)), 0); err != nil {
		return err
	}
	for l, lk := range levels {
		if lk == nil {
			continue
		}
		if len(lk.Ks0Hat) != l+1 {
			return fmt.Errorf("ckks: level %d key has %d digits, want %d", l, len(lk.Ks0Hat), l+1)
		}
		if err := keyio.WritePairs(w, params.KSMods[l], params.N(), lk.Ks0Hat, lk.Ks1Hat); err != nil {
			return err
		}
	}
	return nil
}

func readLevelsBody(r io.Reader, params *Params) ([]*LevelKey, error) {
	meta, err := keyio.ReadWords(r, 2) // level count, one word of padding
	if err != nil {
		return nil, err
	}
	if int(meta[0]) != params.Cfg.QCount {
		return nil, fmt.Errorf("ckks: key bundle for a %d-level chain, params have %d", meta[0], params.Cfg.QCount)
	}
	levels := make([]*LevelKey, params.Cfg.QCount)
	for l := 1; l < len(levels); l++ {
		k0, k1, err := keyio.ReadPairs(r, params.KSMods[l], params.N(), l+1)
		if err != nil {
			return nil, err
		}
		levels[l] = &LevelKey{Ks0Hat: k0, Ks1Hat: k1}
	}
	return levels, nil
}

// WriteRelinKeyV2 serializes a relinearization key with the checksum
// trailer.
func WriteRelinKeyV2(w io.Writer, params *Params, rk *RelinKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		return writeLevelsBody(w, params, rk.Levels)
	})
}

// ReadRelinKey reads a relinearization key and its parameters.
func ReadRelinKey(r io.Reader) (*Params, *RelinKey, error) {
	return keyio.ReadKey(r, ckksScheme, NewParams, func(r io.Reader, params *Params) (*RelinKey, error) {
		levels, err := readLevelsBody(r, params)
		return &RelinKey{Levels: levels}, err
	})
}

// WriteGaloisKeyV2 serializes a Galois key with the checksum trailer: the
// element (and one word of padding), then the level bundle.
func WriteGaloisKeyV2(w io.Writer, params *Params, gk *GaloisKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		if err := keyio.WriteWords(w, uint32(gk.G), 0); err != nil {
			return err
		}
		return writeLevelsBody(w, params, gk.Levels)
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
		levels, err := readLevelsBody(r, params)
		return &GaloisKey{G: int(meta[0]), Levels: levels}, err
	})
}
