package fv

import (
	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/sampler"
)

// Encryptor produces fresh ciphertexts under a public key, following the
// paper's Fig. 1: sample (u, e1, e2), then
//
//	c0 = p0·u + e1 + Δ·m̃,   c1 = p1·u + e2,
//
// with Δ = ⌊q/t⌋ scaling the encoded message m̃ into the ciphertext space.
type Encryptor struct {
	params *Params
	pk     *PublicKey
	prng   *sampler.PRNG
	gauss  *sampler.Gaussian
}

// NewEncryptor returns an encryptor drawing randomness from prng.
func NewEncryptor(params *Params, pk *PublicKey, prng *sampler.PRNG) *Encryptor {
	return &Encryptor{
		params: params,
		pk:     pk,
		prng:   prng,
		gauss:  sampler.NewGaussian(params.Cfg.Sigma),
	}
}

// Encrypt encrypts pt into a fresh two-element ciphertext: the shared
// zero-encryption plus Δ·m̃ on c0.
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	p := e.params
	ct := NewCiphertext(p, 2)
	rlwe.EncryptZeroInto(e.prng, e.gauss, p.TrQ, p.QMods, p.N(), e.pk, ct.Els[0], ct.Els[1])
	addDeltaM(p, pt, ct.Els[0])
	return ct
}

// addDeltaM adds Δ·m̃ into dst, where m̃ carries the plaintext coefficients
// (reduced mod t) into each residue row.
func addDeltaM(p *Params, pt *Plaintext, dst poly.RNSPoly) {
	t := p.Cfg.T
	for i, m := range p.QMods {
		d := p.msg.Delta[i]
		row := dst.Rows[i]
		for c, mc := range pt.Coeffs {
			row.Coeffs[c] = m.Add(row.Coeffs[c], m.Mul(d, m.Reduce(mc%t)))
		}
	}
}

// Decryptor recovers plaintexts with the secret key: it takes the phase
// x = c0 + c1·s (+ c2·s² for a degree-2 ciphertext) and rounds t·x/q from
// its residues (rns.MessageScaler) — the decoder box of the paper's Fig. 1.
type Decryptor struct {
	params *Params
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Params, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt decrypts ct (degree 1 or 2).
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	p := d.params
	x := rlwe.Phase(p.TrQ, d.sk, ct.Els)
	pt := NewPlaintext(p)
	p.msg.RoundInto(pt.Coeffs, x)
	return pt
}
