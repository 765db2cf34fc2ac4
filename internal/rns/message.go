package rns

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/poly"
)

// MessageScaler moves an FV message between Z_t and the ciphertext basis q
// (the paper's Fig. 1): encryption scales by Δ = ⌊q/t⌋, decryption rounds
// t·x/q in RNS — ScaleRounder's Blocks 1–3 with t in place of p and no base
// switch. With t·q̃_i = W_i·q_i + r_i,
//
//	round(t·x/q) ≡ Σ x_i·W_i + round(Σ x_i·r_i/q_i)   (mod t),
//
// the integer sum taken in 128 bits (any t < 2^64) and the fraction in
// 128-bit fixed point. Truncating the fraction can change the rounding only
// when the residual w = t·x̂ − q·round(t·x̂/q) has
// |w| > q/2 − q·k·2^(MaxModulusBits−128), where the noise budget is already
// 0 (DESIGN §4b derives the bound).
type MessageScaler struct {
	Delta []uint64 // Delta[i] = ⌊q/t⌋ mod q_i

	t     uint64
	w     []uint64  // w[i] = W_i = ⌊t·q̃_i/q_i⌋ < t
	theta []frac128 // theta[i] = r_i/q_i
}

// NewMessageScaler prepares the scaling constants of basis b for plaintext
// modulus t.
func NewMessageScaler(b *Basis, t uint64) (*MessageScaler, error) {
	if t < 2 {
		return nil, fmt.Errorf("rns: plaintext modulus %d too small", t)
	}
	delta := new(big.Int).Quo(b.Product, new(big.Int).SetUint64(t))
	s := &MessageScaler{
		Delta: make([]uint64, b.K()),
		t:     t,
		w:     make([]uint64, b.K()),
		theta: make([]frac128, b.K()),
	}
	for i, m := range b.Mods {
		s.Delta[i] = modWord(delta, m.Q)
		// t·q̃_i < t·q_i, so the high word is below q_i and Div64 cannot
		// overflow.
		hi, lo := bits.Mul64(t, b.QTilde[i])
		var r uint64
		s.w[i], r = bits.Div64(hi, lo, m.Q)
		s.theta[i] = fracDiv(r, m.Q)
	}
	return s, nil
}

// round returns round(t·x/q) mod t for the canonical residues res of x.
func (s *MessageScaler) round(res []uint64) uint64 {
	var acc acc192
	var hi, lo uint64
	for i, x := range res {
		acc.addMul(x, s.theta[i])
		ph, pl := bits.Mul64(x, s.w[i])
		var c uint64
		lo, c = bits.Add64(lo, pl, 0)
		hi += ph + c
	}
	var c uint64
	lo, c = bits.Add64(lo, acc.round(), 0)
	_, r := bits.Div64((hi+c)%s.t, lo, s.t)
	return r
}

// RoundInto writes round(t·x/q) mod t of every coefficient of x into dst.
func (s *MessageScaler) RoundInto(dst []uint64, x poly.RNSPoly) {
	if x.Level() != len(s.w) {
		panic("rns: RoundInto level mismatch")
	}
	res := make([]uint64, len(s.w))
	for c := range dst {
		for i := range res {
			res[i] = x.Rows[i].Coeffs[c]
		}
		dst[c] = s.round(res)
	}
}
