package rns

import (
	"math/big"

	"repro/internal/poly"
	"repro/internal/ring"
)

// DecomposeRNS performs the RNS gadget decomposition used by the fast
// architecture's relinearization: a value x mod q is written as
//
//	x ≡ Σ_i d_i · q*_i  (mod q),   d_i = x_i·q̃_i mod q_i < 2^30,
//
// so the "digits" are the per-prime projections — the RNS analogue of the
// paper's WordDecomp with base w = 2^30, producing ℓ = k digit polynomials
// (six for the paper's parameter set, matching its six-polynomial
// relinearization keys). Each digit polynomial is returned replicated
// across all k residue rows so it can enter NTT-domain products directly.
func DecomposeRNS(b *Basis, x poly.RNSPoly) []poly.RNSPoly {
	return DecomposeRNSPool(nil, b, x)
}

// DecomposeRNSPool is DecomposeRNS with the per-digit work fanned across a
// pool (each digit polynomial is written by exactly one task). A nil pool
// runs sequentially; results are bit-identical either way.
func DecomposeRNSPool(pool *poly.Pool, b *Basis, x poly.RNSPoly) []poly.RNSPoly {
	digits := make([]poly.RNSPoly, b.K())
	for i := range digits {
		digits[i] = poly.NewRNSPoly(b.Mods, x.N())
	}
	DecomposeRNSPoolInto(pool, b, x, digits)
	return digits
}

// DecomposeRNSPoolInto writes the RNS digits of x into the caller-owned
// digits slice (b.K() polynomials, each x.N() coefficients), allocating
// nothing. The kernel is row-major and flat: digit i's own row is one Shoup
// constant-multiplication pass over the source row (d_i = x_i·q̃_i is
// already reduced modulo q_i), and every other row is a re-reduction of that
// row (ReplicateDigitInto) — the same per-coefficient values as the scalar
// path, walked a cache line at a time instead of a column at a time.
//
// The digit polynomials' first b.K() rows must be over b's moduli; any rows
// past that (a hybrid keyswitch extending digits to a special modulus) get
// the same replication — a digit is a small integer, so "its residue mod p"
// is one more reduction pass, not a CRT reconstruction.
func DecomposeRNSPoolInto(pool *poly.Pool, b *Basis, x poly.RNSPoly, digits []poly.RNSPoly) {
	if x.Level() != b.K() {
		panic("rns: DecomposeRNS level mismatch")
	}
	if len(digits) != b.K() {
		panic("rns: DecomposeRNS digit count mismatch")
	}
	n := x.N()
	t := getDecompTask()
	t.b, t.src, t.digits = b, x.Rows, digits
	pool.RunTask(n*b.K()*b.K(), b.K(), t)
	putDecompTask(t)
}

// decompTask is the recycled IndexTask behind DecomposeRNSPoolInto; index i
// writes digit polynomial i.
type decompTask struct {
	b      *Basis
	src    []poly.Poly
	digits []poly.RNSPoly
}

func (t *decompTask) RunIndex(i int) {
	b := t.b
	m := b.Mods[i]
	qTilde := b.QTilde[i]
	qTildeShoup := m.ShoupPrecomp(qTilde)
	di := t.digits[i]
	// Row i holds d_i = x_i·q̃_i mod q_i verbatim (Reduce is the identity on
	// a value already below q_i).
	base := di.Rows[i].Coeffs
	m.VecScalarMulShoupInto(base, t.src[i].Coeffs, qTilde, qTildeShoup)
	for r := range di.Rows {
		if r == i {
			continue
		}
		ReplicateDigitInto(di.Rows[r].Mod, di.Rows[r].Coeffs, base, m.Q)
	}
}

// ReplicateDigitInto writes one row of a gadget digit into dst as residues
// modulo m: digit holds values below q, the prime the digit was extracted
// modulo. For same-width primes (q ≤ 2·m.Q, every pair at both paper sets)
// each value is within one subtraction of canonical, so the replication is a
// conditional subtract instead of a Barrett pass. DecomposeRNSPoolInto and the
// co-processor's Decomp both replicate through it.
func ReplicateDigitInto(m ring.Modulus, dst, digit []uint64, q uint64) {
	if q <= 2*m.Q {
		m.VecReduceOnceInto(dst, digit)
		return
	}
	m.VecReduceInto(dst, digit)
}

var decompTaskFree = make(chan *decompTask, 16)

func getDecompTask() *decompTask {
	select {
	case t := <-decompTaskFree:
		return t
	default:
		return new(decompTask)
	}
}

func putDecompTask(t *decompTask) {
	*t = decompTask{}
	select {
	case decompTaskFree <- t:
	default:
	}
}

// GadgetRNS returns the gadget vector of DecomposeRNS: g_i = q*_i mod q_j
// per row, as constants an evaluator multiplies into key components. The
// identity Σ_i d_i·g_i ≡ x (mod q) is what relinearization keys encrypt
// against.
func GadgetRNS(b *Basis) []poly.RNSPoly {
	g := make([]poly.RNSPoly, b.K())
	for i := range b.Mods {
		g[i] = poly.NewRNSPoly(b.Mods, 1)
		for j, mj := range b.Mods {
			g[i].Rows[j].Coeffs[0] = modWord(b.QStar[i], mj.Q)
		}
	}
	return g
}

// WordDecompose performs the traditional positional decomposition of the
// paper's Sec. II-B example: each coefficient, reconstructed to its centered
// positional form, is sliced into ℓ signed digits in base w = 2^logW
// (digits in (-w/2, w/2]), so that x = Σ_i d_i·w^i. Signed digits halve the
// digit magnitude, which is why the paper's toy example decomposes 43 into
// -5 + 16·3. The slower architecture uses this decomposition with a smaller
// ℓ ("three times smaller relinearization key", Sec. VI-C).
func WordDecompose(b *Basis, x poly.RNSPoly, logW uint, ell int) []poly.RNSPoly {
	if x.Level() != b.K() {
		panic("rns: WordDecompose level mismatch")
	}
	n := x.N()
	digits := make([]poly.RNSPoly, ell)
	for i := range digits {
		digits[i] = poly.NewRNSPoly(b.Mods, n)
	}
	res := make([]uint64, b.K())
	one := big.NewInt(1)
	w := new(big.Int).Lsh(one, logW)
	half := new(big.Int).Lsh(one, logW-1)
	var limb big.Int
	for c := 0; c < n; c++ {
		for i := range res {
			res[i] = x.Rows[i].Coeffs[c]
		}
		mag := b.ReconstructCentered(res)
		neg := mag.Sign() < 0
		mag.Abs(mag)
		// Slice |x| into signed base-w digits, then apply the overall sign.
		var carry bool
		for d := 0; d < ell; d++ {
			limb.Mod(mag, w)
			mag.Rsh(mag, logW)
			if carry {
				limb.Add(&limb, one)
				carry = false
			}
			digNeg := false
			if limb.Cmp(half) > 0 { // digit > w/2: use digit - w, carry 1
				limb.Sub(w, &limb)
				digNeg = true
				carry = true
			}
			for row, mr := range b.Mods {
				// Digits can exceed a word for wide bases (the slower
				// architecture uses w = 2^90).
				v := modWord(&limb, mr.Q)
				if digNeg != neg { // XOR of digit sign and value sign
					v = mr.Neg(v)
				}
				digits[d].Rows[row].Coeffs[c] = v
			}
		}
		if mag.Sign() != 0 || carry {
			panic("rns: WordDecompose digit count too small for the basis")
		}
	}
	return digits
}
