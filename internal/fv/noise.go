package fv

import (
	"repro/internal/obs"
	"repro/internal/rlwe"
)

// NoiseBudget returns the invariant-noise budget of ct in bits, measured
// with the secret key: with x = c0 + c1·s (+ c2·s²) and per-coefficient
// residuals w = t·x̂ - q·round(t·x̂/q), the invariant noise is
// v = max|w|/q and the budget is ⌊log2(q) - 1 - log2(max|w|)⌋. Decryption
// is correct while the budget is positive; each homomorphic multiplication
// consumes roughly log2(2·t·n) bits, which is what makes the paper's
// depth-4 target need a 180-bit q (Sec. III-A).
//
// No division is needed: w ≡ t·x (mod q) and |w| < q/2 (q is odd), so w is
// the centered reconstruction of the residues t·x_i mod q_i.
func NoiseBudget(params *Params, sk *SecretKey, ct *Ciphertext) int {
	x := rlwe.Phase(params.TrQ, sk, ct.Els)
	t := params.Cfg.T
	res := make([]uint64, params.QBasis.K())
	maxBits := 0
	for c := 0; c < params.N(); c++ {
		for i, m := range params.QMods {
			res[i] = m.Mul(x.Rows[i].Coeffs[c], m.Reduce(t))
		}
		if b := params.QBasis.ReconstructCentered(res).BitLen(); b > maxBits {
			maxBits = b
		}
	}
	budget := params.LogQ() - 1 - maxBits
	if budget < 0 {
		budget = 0
	}
	return budget
}

// GaugeNoiseBudget measures NoiseBudget and mirrors it into the registry's
// "fv.noise_budget_bits" gauge, so a client-side measurement (it needs the
// secret key) shows up next to the serving-side counters in one snapshot.
// It returns the measured budget; a nil registry just measures.
func GaugeNoiseBudget(reg *obs.Registry, params *Params, sk *SecretKey, ct *Ciphertext) int {
	b := NoiseBudget(params, sk, ct)
	reg.Gauge("fv.noise_budget_bits").Set(int64(b))
	return b
}
