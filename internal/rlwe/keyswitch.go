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
	t.raw = RawSoPSafe(ks.mods, len(digits))
	ks.pool.RunTask(ks.n*len(ks.sop0.Rows), len(ks.sop0.Rows), t)
}

// InverseSoP inverse-transforms both accumulators back to the coefficient
// domain. Switch hands them out; the three stages stay exported one by one
// for the benchmark's layer timing.
func (ks *KeySwitcher) InverseSoP() {
	ks.tr.Inverse(ks.sop0)
	ks.tr.Inverse(ks.sop1)
}

// sopTask is the software switcher's row task: row j runs SoPRow over the
// decomposed digits, forward-transforming each digit's j-th row in place.
type sopTask struct {
	tables     []*poly.NTTTable
	digits     []poly.RNSPoly
	k0, k1     []poly.RNSPoly
	sop0, sop1 []poly.Poly
	raw        bool // lazy raw accumulation is in range (see RawSoPSafe)
}

func (t *sopTask) RunIndex(j int) {
	SoPRow(t.tables[j], t.raw, t, t.k0, t.k1, j, t.sop0[j].Coeffs, t.sop1[j].Coeffs)
}

// NTTDigit transforms digit i's row j in place and returns it.
func (t *sopTask) NTTDigit(tab *poly.NTTTable, i, j int) []uint64 {
	d := t.digits[i].Rows[j].Coeffs
	tab.Forward(d)
	return d
}

// DigitRows hands SoPRow the gadget digits one residue row at a time.
type DigitRows interface {
	// NTTDigit returns digit i's residue row j forward-transformed by tab
	// (tab is row j's table). Each (i, j) is asked for once, in digit order.
	NTTDigit(tab *poly.NTTTable, i, j int) []uint64
}

// SoPRow is the key-switch sum of products of one residue row j, the one
// schedule the software switcher and the co-processor's fused digit loop
// (hwsim) both run: every digit's row j is transformed while it is hot and
// multiplied into both accumulator rows s0 = Σ NTT(d_i)·k0_i and
// s1 = Σ NTT(d_i)·k1_i against the key rows where they lie, over the
// len(k0) digits in order. With raw (RawSoPSafe) the unreduced products are
// summed and Barrett-reduced once at the end; otherwise every MAC reduces.
// Either way s0 and s1 are overwritten with the canonical sums, so the rows
// equal a CMul + CAdd per digit bit for bit.
func SoPRow(tab *poly.NTTTable, raw bool, d DigitRows, k0, k1 []poly.RNSPoly, j int, s0, s1 []uint64) {
	m := tab.Mod
	if raw {
		// Raw MAC schedule: one multiply per lane, the same Σ mod q at
		// roughly half the multiplies of the eager schedule.
		for i := range k0 {
			dj := d.NTTDigit(tab, i, j)
			if i == 0 {
				m.VecMulRawInto(s0, dj, k0[i].Rows[j].Coeffs)
				m.VecMulRawInto(s1, dj, k1[i].Rows[j].Coeffs)
			} else {
				m.VecMulAddRawInto(s0, dj, k0[i].Rows[j].Coeffs)
				m.VecMulAddRawInto(s1, dj, k1[i].Rows[j].Coeffs)
			}
		}
		m.VecReduceInto(s0, s0)
		m.VecReduceInto(s1, s1)
		return
	}
	clear(s0)
	clear(s1)
	for i := range k0 {
		dj := d.NTTDigit(tab, i, j)
		m.VecMulAddInto(s0, dj, k0[i].Rows[j].Coeffs)
		m.VecMulAddInto(s1, dj, k1[i].Rows[j].Coeffs)
	}
}

// RawSoPSafe reports whether k raw digit·key products of residues modulo the
// widest of mods can be summed in a uint64 without leaving VecReduceInto's
// input range: k·(maxQ-1)² < 2^63. True for every paper-scale configuration
// (six 30-bit digits sum below 2^62.6); a wider basis falls back to the
// eagerly reduced MAC schedule.
func RawSoPSafe(mods []ring.Modulus, k int) bool {
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
