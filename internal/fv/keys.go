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
// digit of the RNS gadget, stored in the NTT domain — ℓ = 6 components for
// the paper set ("each relinearization key is a vector of six polynomials",
// Sec. VI-C).
type RelinKey struct {
	Rlk0Hat []poly.RNSPoly
	Rlk1Hat []poly.RNSPoly
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

// GenRelinKey derives a relinearization key for sk over the RNS gadget
// g_i = q*_i.
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *RelinKey {
	p := kg.params
	n := p.N()
	// s² in the NTT domain.
	s2Hat := poly.NewRNSPoly(p.QMods, n)
	sk.SHat.MulInto(sk.SHat, s2Hat)
	// rlk_i = (-(a·s + e) + g_i·s², a): the shared gadget construction with
	// payload s².
	rk := &RelinKey{}
	rk.Rlk0Hat, rk.Rlk1Hat = rlwe.GenGadgetKey(kg.prng, kg.gauss, p.TrQ, p.QMods, n, rns.GadgetRNS(p.QBasis), sk.SHat, s2Hat)
	return rk
}

// GenKeys is the common bundle: secret, public, and relin key.
func (kg *KeyGenerator) GenKeys() (*SecretKey, *PublicKey, *RelinKey) {
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk := kg.GenRelinKey(sk)
	return sk, pk, rk
}
