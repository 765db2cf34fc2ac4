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

// LevelKey is a gadget key-switch key as a level-ℓ operation reads it: ℓ+1
// component pairs over the extended rows (q_0..q_ℓ, p*), each encrypting
// p*·g_i·payload with the top level's gadget g_i = Q_L/q_i. One key over the
// top level serves every level: the digit step multiplies by the top
// basis's q̃_i = (Q_L/q_i)⁻¹ mod q_i, and Σ_{i≤ℓ} d_i·g_i ≡ x modulo each
// prime of the level (rns.DecomposeRNSPoolInto), so a level's key is row
// views of the top one — its first ℓ+1 digits, their rows q_0..q_ℓ and p*.
// The p* factor is the GHS hybrid construction: the keyswitch SoP lands at
// p* times the switched value and the evaluator ModDowns by p*, dividing the
// gadget noise out of the message's scale range.
type LevelKey struct {
	Ks0Hat []poly.RNSPoly
	Ks1Hat []poly.RNSPoly
}

// levelViews is one top-level gadget key as the level-0..L views At hands
// out, built once when the key is generated or read: levels[L] is the key
// itself, every lower level shares its storage.
type levelViews struct {
	levels []LevelKey
}

// At returns the level-ℓ view, panicking on a level outside the chain.
func (v *levelViews) At(level int) *LevelKey {
	if level < 0 || level >= len(v.levels) {
		panic(fmt.Sprintf("ckks: no key at level %d of a %d-level chain", level, len(v.levels)))
	}
	return &v.levels[level]
}

// cutLevels cuts the views of every level out of a top-level key's
// digit pairs (k0, k1 over KSMods[L]).
func (p *Params) cutLevels(k0, k1 []poly.RNSPoly) levelViews {
	top := p.MaxLevel()
	v := levelViews{levels: make([]LevelKey, top+1)}
	for l := range v.levels {
		lk := &v.levels[l]
		for i := 0; i <= l; i++ {
			lk.Ks0Hat = append(lk.Ks0Hat, k0[i].Prefix(l+1, top+1))
			lk.Ks1Hat = append(lk.Ks1Hat, k1[i].Prefix(l+1, top+1))
		}
	}
	return v
}

// RelinKey is the relinearization key (payload s²); At(ℓ) is its level-ℓ
// view.
type RelinKey struct {
	levelViews
}

// GaloisKey is the switch key of one automorphism element (payload σ_g(s));
// At(ℓ) is its level-ℓ view.
type GaloisKey struct {
	G int
	levelViews
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

// ksGadgets returns the top level's gadget constants over its extended
// rows: p*·g_i mod q_j on the chain rows, 0 on the p* row (p* ≡ 0 mod p*
// kills the payload term there, which is what lets ModDown divide it out).
func (p *Params) ksGadgets() []poly.RNSPoly {
	top := p.MaxLevel()
	base := rns.GadgetRNS(p.BasisLevel[top])
	out := make([]poly.RNSPoly, len(base))
	for i := range base {
		out[i] = poly.NewRNSPoly(p.KSMods[top], 1)
		for j, m := range p.QMods {
			out[i].Rows[j].Coeffs[0] = m.Mul(m.Reduce(p.PMod.Q), base[i].Rows[j].Coeffs[0])
		}
		// The p* row stays zero.
	}
	return out
}

// genKey derives the one gadget key of a payload (given over AllMods, NTT
// domain): L+1 digit pairs encrypting p*·g_i·payload over the top level's
// extended rows, which are all of AllMods.
func (kg *KeyGenerator) genKey(sk *SecretKey, payloadHat poly.RNSPoly) levelViews {
	p := kg.params
	top := p.MaxLevel()
	k0, k1 := rlwe.GenGadgetKey(kg.prng, kg.gauss, p.TrKS[top], p.KSMods[top], p.N(),
		p.ksGadgets(), sk.SHat, payloadHat)
	return p.cutLevels(k0, k1)
}

// GenRelinKey derives the relinearization key (payload s²).
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *RelinKey {
	s2Hat := poly.NewRNSPoly(kg.params.AllMods, kg.params.N())
	sk.SHat.MulInto(sk.SHat, s2Hat)
	return &RelinKey{kg.genKey(sk, s2Hat)}
}

// GenGaloisKey derives the switch key for the automorphism g (odd,
// 1 ≤ g < 2n; payload σ_g(s)).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g int) *GaloisKey {
	if err := rlwe.CheckGaloisElement(g, kg.params.N()); err != nil {
		panic(err)
	}
	sGHat := rlwe.Automorph(g, sk.S)
	kg.params.Tr.Forward(sGHat)
	return &GaloisKey{G: g, levelViews: kg.genKey(sk, sGHat)}
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
