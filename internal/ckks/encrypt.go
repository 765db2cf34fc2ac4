package ckks

import (
	"fmt"

	"repro/internal/rlwe"
	"repro/internal/sampler"
)

// Encryptor produces CKKS ciphertexts: (c0, c1) = (p0·u + e1 + m, p1·u + e2)
// at the plaintext's level — the message rides in the low bits with its
// scale, with no Δ-multiply at encryption time (the encoder already scaled).
type Encryptor struct {
	params *Params
	pk     *PublicKey
	prng   *sampler.PRNG
	gauss  *sampler.Gaussian
}

// NewEncryptor returns an encryptor drawing randomness from prng.
func NewEncryptor(params *Params, pk *PublicKey, prng *sampler.PRNG) *Encryptor {
	return &Encryptor{params: params, pk: pk, prng: prng, gauss: sampler.NewGaussian(params.Cfg.Sigma)}
}

// Encrypt encrypts pt at its level and scale: the shared zero-encryption
// over the level's chain prefix plus the encoded message on c0.
func (en *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	p := en.params
	level := pt.Level()
	ct := NewCiphertext(p, 1, level)
	ct.Scale = pt.Scale
	rlwe.EncryptZeroInto(en.prng, en.gauss, p.TrLevel[level], p.QMods[:level+1], p.N(), en.pk, ct.Els[0], ct.Els[1])
	ct.Els[0].AddInto(pt.Value, ct.Els[0])
	return ct
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	params *Params
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Params, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// Decrypt computes m = Σ c_i·s^i at the ciphertext's level, returning a
// plaintext at the ciphertext's scale.
func (de *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	if len(ct.Els) < 1 || len(ct.Els) > 3 {
		panic(fmt.Sprintf("ckks: cannot decrypt a %d-element ciphertext", len(ct.Els)))
	}
	return &Plaintext{Value: rlwe.Phase(de.params.TrLevel[ct.Level()], de.sk, ct.Els), Scale: ct.Scale}
}
