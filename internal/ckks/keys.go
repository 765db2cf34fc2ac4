package ckks

import (
	"fmt"

	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/rns"
	"repro/internal/sampler"
)

// SecretKey is the shared RLWE secret over AllMods (the chain plus the
// keyswitch special prime). A level-ℓ operation reads the row prefix
// SHat.Rows[:ℓ+1], and the p* row joins in only inside key-switch key
// material. PublicKey is the shared pair over the full chain; encryption at
// level ℓ consumes the row prefix.
type (
	SecretKey = rlwe.SecretKey
	PublicKey = rlwe.PublicKey
)

// LevelKey is one level's gadget key-switch key: ℓ+1 component pairs over
// the extended rows (q_0..q_ℓ, p*), each encrypting p*·g_i·payload. The
// gadget constants q*_i, q̃_i depend on the live basis, so each level needs
// its own key material — the level-aware datapath trade-off of a rescaling
// scheme. The p* factor is the GHS hybrid construction: the keyswitch SoP
// lands at p* times the switched value and the evaluator ModDowns by p*,
// dividing the gadget noise out of the message's scale range.
type LevelKey struct {
	Ks0Hat []poly.RNSPoly
	Ks1Hat []poly.RNSPoly
}

// RelinKey bundles the relinearization keys of every level: Levels[ℓ] is
// nil below level 1 (a level-0 product cannot rescale and is not served).
type RelinKey struct {
	Levels []*LevelKey
}

// At returns the level-ℓ key, panicking on a level the key does not carry.
func (rk *RelinKey) At(level int) *LevelKey {
	if level < 1 || level >= len(rk.Levels) || rk.Levels[level] == nil {
		panic(fmt.Sprintf("ckks: no relin key at level %d", level))
	}
	return rk.Levels[level]
}

// GaloisKey bundles the per-level switch keys of one automorphism element.
type GaloisKey struct {
	G      int
	Levels []*LevelKey
}

// At returns the level-ℓ key, panicking on a level the key does not carry.
func (gk *GaloisKey) At(level int) *LevelKey {
	if level < 1 || level >= len(gk.Levels) || gk.Levels[level] == nil {
		panic(fmt.Sprintf("ckks: no Galois key for g=%d at level %d", gk.G, level))
	}
	return gk.Levels[level]
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

// GenSecretKey samples a fresh signed-binary secret over AllMods.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	p := kg.params
	return rlwe.GenSecretKey(kg.prng, p.Tr, p.AllMods, p.N())
}

// GenPublicKey derives a public key for sk over the chain (encryption never
// touches the special prime).
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	p := kg.params
	return rlwe.GenPublicKey(kg.prng, kg.gauss, p.TrLevel[p.MaxLevel()], p.QMods, p.N(), sk)
}

// ksGadgets returns the level-ℓ gadget constants over the extended rows:
// p*·g_i mod q_j on the chain rows, 0 on the p* row (p* ≡ 0 mod p* kills
// the payload term there, which is what lets ModDown divide it out).
func (p *Params) ksGadgets(level int) []poly.RNSPoly {
	base := rns.GadgetRNS(p.BasisLevel[level])
	out := make([]poly.RNSPoly, len(base))
	for i := range base {
		out[i] = poly.NewRNSPoly(p.KSMods[level], 1)
		for j := 0; j <= level; j++ {
			m := p.QMods[j]
			out[i].Rows[j].Coeffs[0] = m.Mul(m.Reduce(p.PMod.Q), base[i].Rows[j].Coeffs[0])
		}
		// The p* row stays zero.
	}
	return out
}

// genLevels derives the level-1..L gadget keys of one payload (given over
// AllMods, NTT domain): each level's key encrypts p*·g_i·payload over that
// level's extended rows — the chain prefix plus the p* row, as row views of
// the full-width secret and payload.
func (kg *KeyGenerator) genLevels(sk *SecretKey, payloadHat poly.RNSPoly) []*LevelKey {
	p := kg.params
	levels := make([]*LevelKey, p.Cfg.QCount)
	for l := 1; l <= p.MaxLevel(); l++ {
		lk := &LevelKey{}
		lk.Ks0Hat, lk.Ks1Hat = rlwe.GenGadgetKey(kg.prng, kg.gauss, p.TrKS[l], p.KSMods[l], p.N(),
			p.ksGadgets(l), sk.SHat.Prefix(l+1, p.Cfg.QCount), payloadHat.Prefix(l+1, p.Cfg.QCount))
		levels[l] = lk
	}
	return levels
}

// GenRelinKey derives relinearization keys for levels 1..L (payload s²).
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *RelinKey {
	s2Hat := poly.NewRNSPoly(kg.params.AllMods, kg.params.N())
	sk.SHat.MulInto(sk.SHat, s2Hat)
	return &RelinKey{Levels: kg.genLevels(sk, s2Hat)}
}

// GenGaloisKey derives per-level switch keys for the automorphism g (odd,
// 1 ≤ g < 2n; payload σ_g(s)).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g int) *GaloisKey {
	if err := rlwe.CheckGaloisElement(g, kg.params.N()); err != nil {
		panic(err)
	}
	sGHat := rlwe.Automorph(g, sk.S)
	kg.params.Tr.Forward(sGHat)
	return &GaloisKey{G: g, Levels: kg.genLevels(sk, sGHat)}
}

// GaloisElementForRotation returns the automorphism element implementing a
// left rotation of the slot vector by r positions (r may be negative or
// exceed the slot count; it is reduced mod N/2).
func (p *Params) GaloisElementForRotation(r int) int {
	slots := p.Slots()
	r = ((r % slots) + slots) % slots
	// 5^r mod 2N by square-and-multiply: the engine resolves this on every
	// rotation it admits and the scheduler checks it against the key.
	m := 2 * p.N()
	g := 1
	for b := 5 % m; r > 0; r >>= 1 {
		if r&1 == 1 {
			g = g * b % m
		}
		b = b * b % m
	}
	return g
}

// GaloisElementForConjugation returns the element implementing complex
// conjugation of the slots.
func (p *Params) GaloisElementForConjugation() int { return 2*p.N() - 1 }

// GenKeys is the common bundle: secret, public, and relinearization keys.
func (kg *KeyGenerator) GenKeys() (*SecretKey, *PublicKey, *RelinKey) {
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk := kg.GenRelinKey(sk)
	return sk, pk, rk
}
