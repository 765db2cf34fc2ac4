// Package rlwe is the one RLWE software layer under the scheme bindings
// (internal/fv, internal/ckks): secret and public keys, the zero-encryption
// and decryption-phase core and their key-file bodies (keys.go), the gadget
// key-switching key construction, the tensor product, the key-switch
// datapath — decompose, fused sum of products, inverse — that
// relinearization, Galois rotation and general key switching all execute
// with a different key (KeySwitcher.Switch), the Galois automorphism, the
// ciphertext wire codec, and the budget-guard hook the serving engine
// screens operations through. BFV and CKKS differ in how they embed a
// message, which moduli a key spans, the basis the tensor runs over and what
// follows the digit loop (DESIGN §4j′); what they run is the same, which is
// why it lives here once.
package rlwe

import (
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/sampler"
)

// GenGadgetKey derives one gadget key-switching key: component i encrypts
// g_i·payload under the secret sHat, where the g_i are the per-digit scalar
// rows of the decomposition gadget (RNS gadget q*_i for the fast
// architecture, positional w^i for the traditional one). Relinearization
// (payload = s²), Galois switching (payload = σ_g(s)) and general key
// switching (payload = s_from) are the same construction with a different
// payload.
//
// All polynomials are over mods in the NTT domain; the sampling order (a
// uniform, then e Gaussian, per digit) is part of the key-file contract —
// seeded PRNGs must reproduce existing keys bit-for-bit.
func GenGadgetKey(prng *sampler.PRNG, gauss *sampler.Gaussian, tr *poly.Transformer,
	mods []ring.Modulus, n int, gadgets []poly.RNSPoly, sHat, payloadHat poly.RNSPoly,
) (ks0Hat, ks1Hat []poly.RNSPoly) {
	for i := range gadgets {
		// ks0_i = -(a·s + e) + g_i·payload.
		body, aHat := maskedZero(prng, gauss, tr, mods, n, sHat)
		for j := range mods {
			gs := poly.NewPoly(mods[j], n)
			// g_i·payload has NTT rows payloadHat scaled by the row constant;
			// bring it back to coefficients before the addition.
			payloadHat.Rows[j].ScalarMulInto(gadgets[i].Rows[j].Coeffs[0], gs)
			tr.Tables[j].Inverse(gs.Coeffs)
			body.Rows[j].AddInto(gs, body.Rows[j])
		}
		tr.Forward(body)
		ks0Hat = append(ks0Hat, body)
		ks1Hat = append(ks1Hat, aHat)
	}
	return ks0Hat, ks1Hat
}
