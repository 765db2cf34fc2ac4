package ckks

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/keyio"
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
		s, err := keyio.ReadRows(r, params.AllMods, params.N())
		if err != nil {
			return nil, err
		}
		sHat := s.Clone()
		params.Tr.Forward(sHat)
		return &SecretKey{S: s, SHat: sHat}, nil
	})
}

// WritePublicKeyV2 serializes a public key with the checksum trailer.
func WritePublicKeyV2(w io.Writer, params *Params, pk *PublicKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		if err := keyio.WriteRows(w, params.QMods, params.N(), pk.P0Hat); err != nil {
			return err
		}
		return keyio.WriteRows(w, params.QMods, params.N(), pk.P1Hat)
	})
}

// ReadPublicKey reads a public key and its parameters.
func ReadPublicKey(r io.Reader) (*Params, *PublicKey, error) {
	return keyio.ReadKey(r, ckksScheme, NewParams, func(r io.Reader, params *Params) (*PublicKey, error) {
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

// writeLevelsBody serializes a per-level key bundle: a level bitmap-style
// count, then for each present level its digit pairs over that level's
// extended rows.
func writeLevelsBody(w io.Writer, params *Params, levels []*LevelKey) error {
	var meta [8]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(len(levels)))
	if _, err := w.Write(meta[:]); err != nil {
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
	var meta [8]byte
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(meta[:4])
	if int(count) != params.Cfg.QCount {
		return nil, fmt.Errorf("ckks: key bundle for a %d-level chain, params have %d", count, params.Cfg.QCount)
	}
	levels := make([]*LevelKey, count)
	for l := 1; l < int(count); l++ {
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
		if err != nil {
			return nil, err
		}
		return &RelinKey{Levels: levels}, nil
	})
}

// WriteGaloisKeyV2 serializes a Galois key with the checksum trailer.
func WriteGaloisKeyV2(w io.Writer, params *Params, gk *GaloisKey) error {
	return keyio.WriteKey(w, ckksScheme, params.Cfg, func(w io.Writer) error {
		return writeGaloisBody(w, params, gk)
	})
}

func writeGaloisBody(w io.Writer, params *Params, gk *GaloisKey) error {
	var meta [8]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(gk.G))
	if _, err := w.Write(meta[:]); err != nil {
		return err
	}
	return writeLevelsBody(w, params, gk.Levels)
}

// ReadGaloisKey reads a Galois key and its parameters.
func ReadGaloisKey(r io.Reader) (*Params, *GaloisKey, error) {
	return keyio.ReadKey(r, ckksScheme, NewParams, func(r io.Reader, params *Params) (*GaloisKey, error) {
		var meta [8]byte
		if _, err := io.ReadFull(r, meta[:]); err != nil {
			return nil, err
		}
		g := int(binary.LittleEndian.Uint32(meta[:4]))
		if g%2 == 0 || g < 1 || g >= 2*params.N() {
			return nil, fmt.Errorf("ckks: implausible Galois element %d", g)
		}
		levels, err := readLevelsBody(r, params)
		if err != nil {
			return nil, err
		}
		return &GaloisKey{G: g, Levels: levels}, nil
	})
}
