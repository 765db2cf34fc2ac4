package rlwe

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
)

// KeySwitcher owns the scratch and the fused kernels of the gadget
// key-switch datapath: RNS decomposition digits, the two sum-of-products
// accumulators, and the recycled dispatch task that interleaves the digit
// NTTs with the MACs against the key halves. It is sized once at
// construction and reused forever, which keeps the steady-state hot paths of
// both scheme bindings allocation-free.
//
// Like the evaluators that embed it, a KeySwitcher is single-client:
// concurrent key switching needs one per goroutine.
type KeySwitcher struct {
	pool  *poly.Pool
	tr    *poly.Transformer
	basis *rns.Basis
	mods  []ring.Modulus
	n     int

	digits     []poly.RNSPoly
	sop0, sop1 poly.RNSPoly
	task       sopTask
}

// NewKeySwitcher builds a switcher over basis (the live q basis) with tr
// transforming exactly that basis's rows.
func NewKeySwitcher(pool *poly.Pool, tr *poly.Transformer, basis *rns.Basis, n int) *KeySwitcher {
	return NewKeySwitcherExt(pool, tr, basis, basis.Mods, n)
}

// NewKeySwitcherExt builds a hybrid (special-modulus) switcher: digits still
// decompose over digitBasis, but each digit — and the two accumulators — is
// carried over mods, a prefix of digitBasis's moduli followed by the
// extension rows. The caller's keys encrypt P·g_i·payload over the extended
// basis, so the SoP lands at P times the switched value and a ModDown by the
// special rows recovers it with the keyswitch noise divided by P — the
// standard GHS construction, and the reason a low-scale scheme like CKKS can
// rotate without drowning its message. The digit count is the length of
// that prefix: a level-tracked scheme points every level's switcher at its
// top basis, whose gadget constants serve each prefix (the top-level key's
// rows are then all a level needs, rns.DecomposeRNSPoolInto). With mods ==
// digitBasis.Mods this is exactly the plain switcher.
func NewKeySwitcherExt(pool *poly.Pool, tr *poly.Transformer, digitBasis *rns.Basis, mods []ring.Modulus, n int) *KeySwitcher {
	k := 0
	for k < len(mods) && k < digitBasis.K() && mods[k].Q == digitBasis.Mods[k].Q {
		k++
	}
	if k == 0 {
		panic("rlwe: keyswitch moduli must start with the digit basis")
	}
	ks := &KeySwitcher{pool: pool, tr: tr, basis: digitBasis, mods: mods, n: n}
	ks.digits = make([]poly.RNSPoly, k)
	for i := range ks.digits {
		ks.digits[i] = poly.NewRNSPoly(mods, n)
	}
	ks.sop0 = poly.NewRNSPoly(mods, n)
	ks.sop1 = poly.NewRNSPoly(mods, n)
	return ks
}

// Switch is the whole gadget key switch of x (coefficient domain) under the
// key (k0, k1): decompose into digits, the fused digit-NTT + sum-of-products
// kernel, inverse transform — the paper's one ReLin datapath, which
// relinearization (x = c̃2), rotation (x = σ_g(c1)) and general key switching
// (x = c1) all are with a different key. It returns the two accumulators in
// the coefficient domain (switcher-owned scratch, valid until the next
// Switch): Σ d_i·k0_i to add onto the c0 side, Σ d_i·k1_i for the c1 side —
// at P times that for an extended switcher, whose caller ModDowns next.
//
// The stages report under parent as "decomp", "sop", "intt"; a zero Scope
// records nothing.
func (ks *KeySwitcher) Switch(parent obs.Scope, x poly.RNSPoly, k0, k1 []poly.RNSPoly) (s0, s1 poly.RNSPoly) {
	st := parent.Child("decomp")
	digits := ks.Decompose(x)
	st.End()
	if len(digits) != len(k0) || len(k0) != len(k1) {
		panic(fmt.Sprintf("rlwe: key has %d+%d components, decomposition produced %d digits", len(k0), len(k1), len(digits)))
	}
	st = parent.Child("sop")
	ks.SumOfProducts(digits, k0, k1)
	st.End()
	st = parent.Child("intt")
	ks.InverseSoP()
	st.End()
	return ks.sop0, ks.sop1
}

// Decompose RNS-decomposes x (coefficient domain) into the switcher's digit
// scratch and returns it. The slice is owned by the switcher; it is valid
// until the next Decompose.
func (ks *KeySwitcher) Decompose(x poly.RNSPoly) []poly.RNSPoly {
	rns.DecomposeRNSPoolInto(ks.pool, ks.basis, x, ks.digits)
	return ks.digits
}

// SumOfProducts runs the fused digit-NTT + MAC kernel: sop0 = Σ NTT(d_i)·k0_i,
// sop1 = Σ NTT(d_i)·k1_i, leaving both accumulators in the NTT domain
// (InverseSoP brings them back). digits, from Decompose, is mutated in
// place — each digit row is forward-transformed as it is consumed.
func (ks *KeySwitcher) SumOfProducts(digits, k0, k1 []poly.RNSPoly) {
	t := &ks.task
	t.tables, t.digits = ks.tr.Tables, digits
	t.k0, t.k1 = k0, k1
	t.sop0, t.sop1 = ks.sop0.Rows, ks.sop1.Rows
	t.raw = rawSOPSafe(ks.mods, len(digits))
	ks.pool.RunTask(ks.n*len(ks.sop0.Rows), len(ks.sop0.Rows), t)
}

// InverseSoP inverse-transforms both accumulators back to the coefficient
// domain. Switch hands them out; the three stages stay exported one by one
// for the benchmark's layer timing.
func (ks *KeySwitcher) InverseSoP() {
	ks.tr.Inverse(ks.sop0)
	ks.tr.Inverse(ks.sop1)
}

// sopTask fuses the key-switch digit NTTs with the MACs, one residue row per
// task: row j forward-transforms every digit's j-th row and immediately
// accumulates it against both key halves while it is hot in cache. The
// per-row accumulation order over digits matches the unfused "transform all
// digits, then MAC" schedule exactly, so results are bit-identical; only the
// interleaving across rows changes.
type sopTask struct {
	tables     []*poly.NTTTable
	digits     []poly.RNSPoly
	k0, k1     []poly.RNSPoly
	sop0, sop1 []poly.Poly
	raw        bool // lazy raw accumulation is in range (see rawSOPSafe)
}

func (t *sopTask) RunIndex(j int) {
	tab := t.tables[j]
	m := tab.Mod
	s0 := t.sop0[j].Coeffs
	s1 := t.sop1[j].Coeffs
	if t.raw {
		// Raw MAC schedule: accumulate the unreduced products of every digit
		// (one multiply per lane) and Barrett-reduce once at the end — the
		// same Σ mod q, at roughly half the multiplies of the eager schedule.
		for i := range t.digits {
			d := t.digits[i].Rows[j].Coeffs
			tab.Forward(d)
			if i == 0 {
				m.VecMulRawInto(s0, d, t.k0[i].Rows[j].Coeffs)
				m.VecMulRawInto(s1, d, t.k1[i].Rows[j].Coeffs)
			} else {
				m.VecMulAddRawInto(s0, d, t.k0[i].Rows[j].Coeffs)
				m.VecMulAddRawInto(s1, d, t.k1[i].Rows[j].Coeffs)
			}
		}
		m.VecReduceInto(s0, s0)
		m.VecReduceInto(s1, s1)
		return
	}
	for c := range s0 {
		s0[c] = 0
	}
	for c := range s1 {
		s1[c] = 0
	}
	for i := range t.digits {
		d := t.digits[i].Rows[j].Coeffs
		tab.Forward(d)
		m.VecMulAddInto(s0, d, t.k0[i].Rows[j].Coeffs)
		m.VecMulAddInto(s1, d, t.k1[i].Rows[j].Coeffs)
	}
}

// rawSOPSafe reports whether k raw digit·key products of residues modulo the
// widest of mods can be summed in a uint64 without leaving VecReduceInto's
// input range: k·(maxQ-1)² < 2^63. True for every paper-scale configuration
// (six 30-bit digits sum below 2^62.6); a wider basis falls back to the
// eagerly reduced MAC schedule.
func rawSOPSafe(mods []ring.Modulus, k int) bool {
	var maxQ uint64
	for _, m := range mods {
		if m.Q > maxQ {
			maxQ = m.Q
		}
	}
	if k <= 0 || maxQ < 2 || maxQ >= 1<<32 {
		return false
	}
	return (maxQ-1)*(maxQ-1) < (uint64(1)<<63)/uint64(k)
}
