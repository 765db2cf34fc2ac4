package fv

import (
	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/rns"
	"repro/internal/sampler"
)

// SecretKey and PublicKey are the shared RLWE key types over the q basis.
type (
	SecretKey = rlwe.SecretKey
	PublicKey = rlwe.PublicKey
)

// RelinKey is the relinearization key rlk = (rlk0, rlk1): one pair per
// decomposition digit, stored in the NTT domain. The fast architecture uses
// the RNS gadget (ℓ = 6 components for the paper set — "each relinearization
// key is a vector of six polynomials", Sec. VI-C); the traditional
// architecture uses positional base-w digits with a configurable, typically
// smaller, ℓ.
type RelinKey struct {
	Variant LiftScaleVariant
	Rlk0Hat []poly.RNSPoly
	Rlk1Hat []poly.RNSPoly
	// LogW and Ell describe the positional decomposition when Variant is
	// Traditional; the RNS variant always has Ell = len(params.QMods).
	LogW uint
	Ell  int
}

// KeyGenerator samples key material deterministically from its PRNG.
type KeyGenerator struct {
	params *Params
	prng   *sampler.PRNG
	gauss  *sampler.Gaussian
}

// NewKeyGenerator returns a generator drawing from prng (pass
// sampler.NewRandomPRNG() for real keys, a fixed seed for reproducibility).
func NewKeyGenerator(params *Params, prng *sampler.PRNG) *KeyGenerator {
	return &KeyGenerator{
		params: params,
		prng:   prng,
		gauss:  sampler.NewGaussian(params.Cfg.Sigma),
	}
}

// GenSecretKey samples a fresh signed-binary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	p := kg.params
	return rlwe.GenSecretKey(kg.prng, p.TrQ, p.QMods, p.N())
}

// GenPublicKey derives a public key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	p := kg.params
	return rlwe.GenPublicKey(kg.prng, kg.gauss, p.TrQ, p.QMods, p.N(), sk)
}

// GenRelinKey derives a relinearization key for sk in the given variant.
// For HPS the decomposition is the RNS gadget g_i = q*_i; for Traditional it
// is the positional base-2^logW gadget w^i with ell digits.
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey, variant LiftScaleVariant, logW uint, ell int) *RelinKey {
	p := kg.params
	n := p.N()
	// s² in the NTT domain.
	s2Hat := poly.NewRNSPoly(p.QMods, n)
	sk.SHat.MulInto(sk.SHat, s2Hat)

	var gadgets []poly.RNSPoly // per-digit scalar rows g_i (degree-0)
	switch variant {
	case HPS:
		gadgets = rns.GadgetRNS(p.QBasis)
		ell = p.QBasis.K()
		logW = 0
	case Traditional:
		gadgets = make([]poly.RNSPoly, ell)
		for i := 0; i < ell; i++ {
			gadgets[i] = poly.NewRNSPoly(p.QMods, 1)
			for j, mj := range p.QMods {
				// w^i mod q_j; w = 2^logW can exceed a word for wide digit
				// bases, so reduce it as a power first.
				gadgets[i].Rows[j].Coeffs[0] = mj.Pow(mj.Pow(2, uint64(logW)), uint64(i))
			}
		}
	}

	rk := &RelinKey{Variant: variant, LogW: logW, Ell: ell}
	// rlk_i = (-(a·s + e) + g_i·s², a): the shared gadget construction with
	// payload s².
	rk.Rlk0Hat, rk.Rlk1Hat = rlwe.GenGadgetKey(kg.prng, kg.gauss, p.TrQ, p.QMods, n, gadgets, sk.SHat, s2Hat)
	return rk
}

// GenKeys is the common bundle: secret, public, and an HPS relin key.
func (kg *KeyGenerator) GenKeys() (*SecretKey, *PublicKey, *RelinKey) {
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk := kg.GenRelinKey(sk, HPS, 0, 0)
	return sk, pk, rk
}
