package rlwe

import (
	"io"

	"repro/internal/keyio"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/sampler"
)

// Key material and the encrypt/decrypt core of an RLWE scheme. What a
// scheme binding adds is the message step only: BFV embeds Δ·m̃ and rounds
// t·x/q on the way out, CKKS adds an already-scaled encoding and carries the
// scale. Everything here works over (tr, mods, n) — the moduli of the rows
// touched and the transformer over exactly those rows — and reads a key
// wider than that through its row prefix, which is how CKKS encrypts at a
// level with a full-chain public key.
//
// The sampling orders (s; then a, e; then u, e1, e2) are part of the
// known-answer contract: seeded PRNGs must reproduce existing keys and
// ciphertexts bit for bit.

// SecretKey holds the signed-binary secret s (as in the paper) in
// coefficient and NTT representation.
type SecretKey struct {
	S    poly.RNSPoly // coefficient domain
	SHat poly.RNSPoly // NTT domain
}

// PublicKey is the ring-LWE pair (p0, p1) = (-(a·s + e), a), stored in the
// NTT domain where encryption consumes it.
type PublicKey struct {
	P0Hat poly.RNSPoly
	P1Hat poly.RNSPoly
}

// GenSecretKey samples a fresh signed-binary secret over mods.
func GenSecretKey(prng *sampler.PRNG, tr *poly.Transformer, mods []ring.Modulus, n int) *SecretKey {
	return newSecretKey(tr, sampler.SignedBinaryPoly(prng, mods, n))
}

func newSecretKey(tr *poly.Transformer, s poly.RNSPoly) *SecretKey {
	sHat := s.Clone()
	tr.Forward(sHat)
	return &SecretKey{S: s, SHat: sHat}
}

// maskedZero samples a uniform a and a Gaussian e — in that order — and
// returns body = -(a·s + e) in the coefficient domain with aHat = NTT(a):
// a symmetric encryption of zero under sHat's row prefix, the seed of the
// public key and of every gadget key component.
func maskedZero(prng *sampler.PRNG, gauss *sampler.Gaussian, tr *poly.Transformer,
	mods []ring.Modulus, n int, sHat poly.RNSPoly) (body, aHat poly.RNSPoly) {
	aHat = sampler.UniformPoly(prng, mods, n)
	e := gauss.SamplePoly(prng, mods, n)
	tr.Forward(aHat)
	body = poly.NewRNSPoly(mods, n)
	aHat.MulInto(sHat.Prefix(len(mods)), body)
	tr.Inverse(body)
	body.AddInto(e, body)
	body.NegInto(body)
	return body, aHat
}

// GenPublicKey derives a public key for sk over mods.
func GenPublicKey(prng *sampler.PRNG, gauss *sampler.Gaussian, tr *poly.Transformer,
	mods []ring.Modulus, n int, sk *SecretKey) *PublicKey {
	p0, p1 := maskedZero(prng, gauss, tr, mods, n, sk.SHat)
	tr.Forward(p0)
	return &PublicKey{P0Hat: p0, P1Hat: p1}
}

// EncryptZeroInto writes a fresh public-key encryption of zero over mods,
// (c0, c1) = (p0·u + e1, p1·u + e2) in the coefficient domain, sampling u,
// e1, e2 in that order (the paper's Fig. 1 without the message).
func EncryptZeroInto(prng *sampler.PRNG, gauss *sampler.Gaussian, tr *poly.Transformer,
	mods []ring.Modulus, n int, pk *PublicKey, c0, c1 poly.RNSPoly) {
	uHat := sampler.SignedBinaryPoly(prng, mods, n)
	e1 := gauss.SamplePoly(prng, mods, n)
	e2 := gauss.SamplePoly(prng, mods, n)
	tr.Forward(uHat)
	k := len(mods)
	uHat.MulInto(pk.P0Hat.Prefix(k), c0)
	tr.Inverse(c0)
	c0.AddInto(e1, c0)
	uHat.MulInto(pk.P1Hat.Prefix(k), c1)
	tr.Inverse(c1)
	c1.AddInto(e2, c1)
}

// Phase returns Σ els[i]·s^i in the coefficient domain — the decryption
// phase of a ciphertext of any degree, message plus noise, before the
// scheme's decoding step. tr transforms exactly the elements' rows.
func Phase(tr *poly.Transformer, sk *SecretKey, els []poly.RNSPoly) poly.RNSPoly {
	sHat := sk.SHat.Prefix(len(els[0].Rows))
	// Horner over s in the NTT domain: ((c_k·s + c_{k-1})·s + ...)·s, then
	// c_0 joins in the coefficient domain.
	acc, ci := zeroLike(els[0]), zeroLike(els[0])
	for i := len(els) - 1; i >= 1; i-- {
		tr.ForwardFromInto(ci, els[i])
		acc.AddInto(ci, acc)
		acc.MulInto(sHat, acc)
	}
	tr.Inverse(acc)
	acc.AddInto(els[0], acc)
	return acc
}

// zeroLike returns a zero polynomial over x's moduli and degree.
func zeroLike(x poly.RNSPoly) poly.RNSPoly {
	out := poly.RNSPoly{Rows: make([]poly.Poly, len(x.Rows))}
	for i, row := range x.Rows {
		out.Rows[i] = poly.NewPoly(row.Mod, row.N())
	}
	return out
}

// PadElements extends the shorter of two ciphertext element vectors with
// zero polynomials so both have the same degree (adding a fresh ciphertext
// to an unrelinearized product). The inputs are not modified.
func PadElements(a, b []poly.RNSPoly) (pa, pb []poly.RNSPoly) {
	for len(a) < len(b) {
		a = append(a[:len(a):len(a)], zeroLike(b[0]))
	}
	for len(b) < len(a) {
		b = append(b[:len(b):len(b)], zeroLike(a[0]))
	}
	return a, b
}

// Key-file bodies (the payload inside the keyio container), identical for
// every scheme but for which moduli and transformer a key spans.

// ReadSecretKey reads a secret key written as keyio.WriteRows(sk.S).
func ReadSecretKey(r io.Reader, tr *poly.Transformer, mods []ring.Modulus, n int) (*SecretKey, error) {
	s, err := keyio.ReadRows(r, mods, n)
	if err != nil {
		return nil, err
	}
	return newSecretKey(tr, s), nil
}

// WritePublicKey writes pk's two NTT-domain polynomials, p0 before p1.
func WritePublicKey(w io.Writer, mods []ring.Modulus, n int, pk *PublicKey) error {
	return keyio.WritePairs(w, mods, n, []poly.RNSPoly{pk.P0Hat}, []poly.RNSPoly{pk.P1Hat})
}

// ReadPublicKey reads a public key written by WritePublicKey.
func ReadPublicKey(r io.Reader, mods []ring.Modulus, n int) (*PublicKey, error) {
	p0, p1, err := keyio.ReadPairs(r, mods, n, 1)
	if err != nil {
		return nil, err
	}
	return &PublicKey{P0Hat: p0[0], P1Hat: p1[0]}, nil
}
