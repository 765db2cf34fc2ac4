package fv

import (
	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/rns"
)

// General key switching: re-encrypt a ciphertext from one secret key to
// another without decrypting. Relinearization (s² → s) and Galois key
// switching (σ_g(s) → s) are special cases of the same gadget construction;
// this exported general form additionally enables proxy re-encryption-style
// handovers between tenants of the cloud service.

// SwitchKey re-encrypts ciphertexts from the key that generated it to the
// key skTo embedded at generation time.
type SwitchKey struct {
	Ks0Hat []poly.RNSPoly
	Ks1Hat []poly.RNSPoly
}

// GenSwitchKey derives a key switching ciphertexts from skFrom to skTo:
// component i encrypts g_i·s_from under s_to.
func (kg *KeyGenerator) GenSwitchKey(skFrom, skTo *SecretKey) *SwitchKey {
	p := kg.params
	gadgets := rns.GadgetRNS(p.QBasis)
	sw := &SwitchKey{}
	sw.Ks0Hat, sw.Ks1Hat = rlwe.GenGadgetKey(kg.prng, kg.gauss, p.TrQ, p.QMods, p.N(), gadgets, skTo.SHat, skFrom.SHat)
	return sw
}

// SwitchKey re-encrypts ct (valid under the switch key's source secret) to
// the destination secret: c0' = c0 + SoP(D(c1), ks0), c1' = SoP(D(c1), ks1),
// the relinearization datapath with the switch key in place of the relin key.
func (ev *Evaluator) SwitchKey(ct *Ciphertext, sw *SwitchKey) *Ciphertext {
	if len(ct.Els) != 2 {
		panic("fv: SwitchKey expects a degree-1 ciphertext")
	}
	return ev.keySwitch(ct.Els[0], ct.Els[1], sw.Ks0Hat, sw.Ks1Hat)
}
