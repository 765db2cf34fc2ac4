package rns

import (
	"repro/internal/poly"
	"repro/internal/ring"
)

// DecomposeRNSPoolInto performs the RNS gadget decomposition used by the
// fast architecture's relinearization: a value x mod q is written as
//
//	x ≡ Σ_i d_i · q*_i  (mod q),   d_i = x_i·q̃_i mod q_i < 2^30,
//
// so the "digits" are the per-prime projections — the RNS analogue of the
// paper's WordDecomp with base w = 2^30, producing ℓ = k digit polynomials
// (six for the paper's parameter set, matching its six-polynomial
// relinearization keys). Each digit polynomial is written replicated
// across all its residue rows so it can enter NTT-domain products directly.
//
// It writes the digits of x into the caller-owned digits slice (b.K()
// polynomials, each x.N() coefficients), allocating nothing. The per-digit
// work fans across pool: each digit polynomial is written by exactly one
// task, a nil pool runs sequentially, and the results are bit-identical
// either way. The kernel is row-major and flat: digit i's own row is one
// Shoup constant-multiplication pass over the source row (d_i = x_i·q̃_i is
// already reduced modulo q_i), and every other row is a re-reduction of that
// row (ReplicateDigitInto), walked a cache line at a time instead of a
// column at a time.
//
// x may also span a prefix q_0..q_{k-1} of b, k < b.K(): it then yields k
// digits d_i = x_i·q̃_i mod q_i with b's own constants q̃_i = (Q/q_i)⁻¹, and
// Σ_{i<k} d_i·(Q/q_i) ≡ x still holds modulo every prime of the prefix (Q/q_i
// vanishes mod q_j for j ≠ i). That is how one key over the top of a modulus
// chain serves every level of it.
//
// The digit polynomials' first k rows must be over the prefix's moduli; any
// rows past that (a hybrid keyswitch extending digits to a special modulus)
// get the same replication — a digit is a small integer, so "its residue mod
// p" is one more reduction pass, not a CRT reconstruction.
func DecomposeRNSPoolInto(pool *poly.Pool, b *Basis, x poly.RNSPoly, digits []poly.RNSPoly) {
	k := x.Level()
	if k > b.K() {
		panic("rns: DecomposeRNSPoolInto level mismatch")
	}
	if len(digits) != k {
		panic("rns: DecomposeRNSPoolInto digit count mismatch")
	}
	n := x.N()
	t := getDecompTask()
	t.b, t.src, t.digits = b, x.Rows, digits
	pool.RunTask(n*k*k, k, t)
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

// GadgetRNS returns the gadget vector of DecomposeRNSPoolInto: g_i = q*_i mod q_j
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
