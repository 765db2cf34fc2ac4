package ckks

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/keyio"
	"repro/internal/poly"
	"repro/internal/ring"
)

// Key and parameter serialization through the shared scheme-tagged container
// (internal/keyio): every file starts with a self-describing header carrying
// the Config, residues are 32-bit words, and the file ("CKk2") ends in the
// FNV-64a checksum trailer — a truncated or bit-flipped file fails with
// ErrCorruptKey instead of silently yielding keys that rotate garbage into
// every slot.
//
// The magic doubles as the scheme tag, so a BFV key file can never parse as
// a CKKS key (and vice versa): the container rejects the foreign magic
// before any payload bytes are interpreted.

// ErrCorruptKey reports that a key file failed validation. It is the
// shared keyio sentinel, so errors.Is works across scheme boundaries.
var ErrCorruptKey = keyio.ErrCorruptKey

// ckksScheme tags CKKS key files in the shared container.
var ckksScheme = keyio.Scheme{V2: [4]byte{'C', 'K', 'k', '2'}}

func paramsFromHeader(blob []byte) (*Params, error) {
	var cfg Config
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return nil, err
	}
	return NewParams(cfg)
}

// writeChecked writes a key file through the shared container.
func writeChecked(w io.Writer, params *Params, body func(io.Writer) error) error {
	blob, err := json.Marshal(params.Cfg)
	if err != nil {
		return err
	}
	return keyio.WriteChecked(w, ckksScheme, blob, body)
}

// readKey reads a key file through the shared container, which verifies the
// checksum trailer; every failure past the magic wraps ErrCorruptKey.
func readKey(r io.Reader, body func(io.Reader, *Params) error) (*Params, error) {
	v, err := keyio.Read(r, ckksScheme,
		func(blob []byte) (any, error) { return paramsFromHeader(blob) },
		func(r io.Reader, params any) error { return body(r, params.(*Params)) })
	if err != nil {
		return nil, err
	}
	return v.(*Params), nil
}

// writePolyRows serializes every row of x as 32-bit words.
func writePolyRows(w io.Writer, x poly.RNSPoly) error {
	buf := make([]byte, x.N()*4)
	for _, row := range x.Rows {
		row.PackWords(buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readPolyRows reads a polynomial over mods, validating residue range.
func readPolyRows(r io.Reader, mods []ring.Modulus, n int) (poly.RNSPoly, error) {
	out := poly.NewRNSPoly(mods, n)
	buf := make([]byte, n*4)
	for ri, m := range mods {
		if _, err := io.ReadFull(r, buf); err != nil {
			return poly.RNSPoly{}, err
		}
		if bad, ok := out.Rows[ri].UnpackWords(buf); !ok {
			return poly.RNSPoly{}, fmt.Errorf("ckks: residue %d out of range for modulus %d", bad, m.Q)
		}
	}
	return out, nil
}

// WriteSecretKeyV2 serializes a secret key with the checksum trailer.
func WriteSecretKeyV2(w io.Writer, params *Params, sk *SecretKey) error {
	return writeChecked(w, params, func(w io.Writer) error {
		return writePolyRows(w, sk.S)
	})
}

// ReadSecretKey reads a secret key and its parameters. A damaged file fails
// with an error wrapping ErrCorruptKey.
func ReadSecretKey(r io.Reader) (*Params, *SecretKey, error) {
	var sk *SecretKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		s, err := readPolyRows(r, params.AllMods, params.N())
		if err != nil {
			return err
		}
		sHat := s.Clone()
		params.Tr.Forward(sHat)
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
		if err := writePolyRows(w, pk.P0Hat); err != nil {
			return err
		}
		return writePolyRows(w, pk.P1Hat)
	})
}

// ReadPublicKey reads a public key and its parameters.
func ReadPublicKey(r io.Reader) (*Params, *PublicKey, error) {
	var pk *PublicKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		p0, err := readPolyRows(r, params.QMods, params.N())
		if err != nil {
			return err
		}
		p1, err := readPolyRows(r, params.QMods, params.N())
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
		for i := range lk.Ks0Hat {
			if err := writePolyRows(w, lk.Ks0Hat[i]); err != nil {
				return err
			}
			if err := writePolyRows(w, lk.Ks1Hat[i]); err != nil {
				return err
			}
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
		lk := &LevelKey{}
		for i := 0; i <= l; i++ {
			p0, err := readPolyRows(r, params.KSMods[l], params.N())
			if err != nil {
				return nil, err
			}
			p1, err := readPolyRows(r, params.KSMods[l], params.N())
			if err != nil {
				return nil, err
			}
			lk.Ks0Hat = append(lk.Ks0Hat, p0)
			lk.Ks1Hat = append(lk.Ks1Hat, p1)
		}
		levels[l] = lk
	}
	return levels, nil
}

// WriteRelinKeyV2 serializes a relinearization key with the checksum
// trailer.
func WriteRelinKeyV2(w io.Writer, params *Params, rk *RelinKey) error {
	return writeChecked(w, params, func(w io.Writer) error {
		return writeLevelsBody(w, params, rk.Levels)
	})
}

// ReadRelinKey reads a relinearization key and its parameters.
func ReadRelinKey(r io.Reader) (*Params, *RelinKey, error) {
	var rk *RelinKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		levels, err := readLevelsBody(r, params)
		if err != nil {
			return err
		}
		rk = &RelinKey{Levels: levels}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return params, rk, nil
}

// WriteGaloisKeyV2 serializes a Galois key with the checksum trailer.
func WriteGaloisKeyV2(w io.Writer, params *Params, gk *GaloisKey) error {
	return writeChecked(w, params, func(w io.Writer) error {
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
	var gk *GaloisKey
	params, err := readKey(r, func(r io.Reader, params *Params) error {
		var meta [8]byte
		if _, err := io.ReadFull(r, meta[:]); err != nil {
			return err
		}
		g := int(binary.LittleEndian.Uint32(meta[:4]))
		if g%2 == 0 || g < 1 || g >= 2*params.N() {
			return fmt.Errorf("ckks: implausible Galois element %d", g)
		}
		levels, err := readLevelsBody(r, params)
		if err != nil {
			return err
		}
		gk = &GaloisKey{G: g, Levels: levels}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return params, gk, nil
}
