package rns

import (
	"fmt"

	"repro/internal/poly"
	"repro/internal/ring"
)

// Extender performs base extension from a source basis to a set of target
// moduli: given the residues of x modulo the source primes, it produces the
// residues of the *centered* representative x̂ ∈ (-Q/2, Q/2] modulo each
// target prime. This is the paper's Lift q→Q (Sec. IV-C): the target moduli
// are the seven extra primes of Q, and the centered semantics is what makes
// the lift exact for the small-magnitude values FV manipulates.
//
// LiftTargetsInto runs the HPS method (Eq. 2 of the paper) over whole
// polynomials — per-prime products and a fixed-point estimate of the
// quotient v′, no long arithmetic — at every basis width. ExtendExact is the
// traditional CRT method (Eq. 1): the exact reconstruction of
// Basis.ReconstructCentered, then the reductions modulo each target prime.
// It is the oracle.
type Extender struct {
	Src *Basis
	Dst []ring.Modulus

	// Pool, when set, stripes the lift's coefficient loop across goroutines —
	// the software counterpart of the paper's two parallel Lift cores
	// streaming disjoint coefficients (Sec. V-B2). The stripe kernel only
	// reads the Extender, so stripes never share mutable state.
	Pool *poly.Pool

	// stripe is the kernel's coefficient width: liftStripe, narrowed for a
	// source basis wider than stripeWords/liftStripe primes so that its k y
	// rows still fit the stack staging.
	stripe int

	// inv[i] = fl(1/q_i), the float64 terms of the quotient estimate, and
	// eps its tie band (fracLanes): the lanes within it are settled in
	// acc192 from Src.invFrac.
	inv []float64
	eps float64

	// The hot-loop constants with their Shoup companions, laid out
	// target-major and *flat* — one backing array, row j at [j·k, (j+1)·k) —
	// so a target row walks a single contiguous []uint64:
	// qStarFlat[j·k+i] = (Q/q_i) mod c_j with Shoup word qStarShoupFlat[j·k+i];
	// qTildeShoup[i] pairs with Src.QTilde[i], qModShoup[j] with
	// qMod[j] = Q mod c_j. They replace every Barrett reduce-and-multiply with
	// a two-multiplication Shoup product, the same strength reduction the
	// paper's Lift pipeline gets from its constant-operand multipliers.
	qTildeShoup    []uint64
	qStarFlat      []uint64
	qStarShoupFlat []uint64
	qMod           []uint64
	qModShoup      []uint64
}

// NewExtender prepares the extension tables from src to dst.
func NewExtender(src *Basis, dst []ring.Modulus) (*Extender, error) {
	for _, d := range dst {
		if src.Contains(d.Q) {
			return nil, fmt.Errorf("rns: target modulus %d already in source basis", d.Q)
		}
	}
	k := src.K()
	if k > stripeWords {
		return nil, fmt.Errorf("rns: source basis of %d primes exceeds the %d-row stripe staging", k, stripeWords)
	}
	e := &Extender{
		Src:            src,
		Dst:            append([]ring.Modulus(nil), dst...),
		stripe:         min(liftStripe, stripeWords/k),
		inv:            make([]float64, k),
		eps:            fracEps(k, 1),
		qTildeShoup:    make([]uint64, k),
		qStarFlat:      make([]uint64, len(dst)*k),
		qStarShoupFlat: make([]uint64, len(dst)*k),
		qMod:           make([]uint64, len(dst)),
		qModShoup:      make([]uint64, len(dst)),
	}
	for i, m := range src.Mods {
		e.qTildeShoup[i] = m.ShoupPrecomp(src.QTilde[i])
		e.inv[i] = 1 / float64(m.Q)
	}
	for j, d := range dst {
		for i := range src.Mods {
			e.qStarFlat[j*k+i] = modWord(src.QStar[i], d.Q)
			e.qStarShoupFlat[j*k+i] = d.ShoupPrecomp(e.qStarFlat[j*k+i])
		}
		e.qMod[j] = modWord(src.Product, d.Q)
		e.qModShoup[j] = d.ShoupPrecomp(e.qMod[j])
	}
	return e, nil
}

// ExtendExact reconstructs the centered value exactly and reduces it modulo
// each target prime: the correctness oracle of LiftTargetsInto, one
// coefficient's residues at a time.
func (e *Extender) ExtendExact(in, out []uint64) {
	e.checkLens(in, out)
	x := e.Src.ReconstructCentered(in)
	for j, d := range e.Dst {
		out[j] = modWord(x, d.Q)
	}
}

func (e *Extender) checkLens(in, out []uint64) {
	if len(in) != e.Src.K() || len(out) != len(e.Dst) {
		panic("rns: ExtendExact residue slice length mismatch")
	}
}

// LiftTargetsInto applies the HPS extension coefficient-wise to an RNS
// polynomial over the source basis (the paper's Lift q→Q of a full
// polynomial: the q residues are kept, the p residues computed). It computes
// only the *target* residue rows, into dst (len(dst) = len(e.Dst), each row
// over the matching target modulus, n coefficients), allocating nothing at
// any basis width: the chunk dispatch is a recycled task and the stripe
// staging lives on the worker's stack. The kept source rows are the
// caller's to reuse — the evaluator NTT-transforms them straight out of the
// input with no copy.
func (e *Extender) LiftTargetsInto(p poly.RNSPoly, dst []poly.Poly) {
	if p.Level() != e.Src.K() {
		panic("rns: polynomial level does not match source basis")
	}
	if len(dst) != len(e.Dst) {
		panic("rns: lift target row count mismatch")
	}
	t := getLiftTask()
	t.e, t.src, t.dst = e, p.Rows, dst
	e.Pool.RunChunksTask(p.N(), minLiftChunk, t)
	putLiftTask(t)
}

// liftStripe is the widest stripe of the row-major kernel: wide enough to
// amortize the per-row constant loads, narrow enough that the y staging rows
// and the fraction lanes stay resident in L1 across the passes.
const liftStripe = 128

// stripeWords sizes the y staging of one stripe (16 KiB): k rows of up to
// liftStripe coefficients for a source basis of up to 16 primes — the
// paper's 6 + 7 layout is well inside it. A wider basis narrows its stripe
// to stripeWords/k coefficients (85 at 24 primes), so every width runs the
// same kernel out of the same stack array.
const stripeWords = 16 * liftStripe

// extendScratch is the stack staging of the row-major kernels: the y rows
// (row i at offset i·stripe), the fraction lanes and the rounded quotients.
// Callers declare one per chunk and thread it through every stripe, so the
// ~20 KiB zero-initialization happens once per chunk rather than once per
// stripe.
type extendScratch struct {
	y    [stripeWords]uint64
	frac fracLanes
	v    [liftStripe]uint64
}

// stripeRows locates the rows of one stripe: row i is
// polys[i].Coeffs[c0:c0+w] — an input polynomial's rows — or, with polys
// nil, staged[i·stride:][:w] — the stripe staging of extendScratch.
type stripeRows struct {
	polys         []poly.Poly
	staged        []uint64
	c0, w, stride int
}

// row returns row i of the stripe.
func (r *stripeRows) row(i int) []uint64 {
	if r.polys != nil {
		return r.polys[i].Coeffs[r.c0 : r.c0+r.w]
	}
	return r.staged[i*r.stride : i*r.stride+r.w]
}

// extendStripe is the HPS Lift over the stripe of w ≤ e.stripe coefficients
// at c0, walked row-major: it reads the source residues of row i from
// src[i].Coeffs[c0:c0+w] — or, when src is nil, from es's y row i, where
// Scale stages them — and writes the target residues into
// dst[j].Coeffs[c0:c0+w]. Per lane it computes
//
//	y_i = a_i·q̃_i mod q_i
//	v′  = round(Σ y_i/q_i)             (float64, near ties 128-bit fixed point)
//	out_j = Σ y_i·(q*_i mod c_j) - v′·(Q mod c_j)   (mod c_j)
//
// Because v′ is the *rounded* quotient, the reconstructed value is the
// centered representative: Σ y_i·q*_i = x + k·Q for some integer k, and
// Σ y_i/q_i = k + x/Q, so v′ = k when x < Q/2 and k+1 otherwise.
func (e *Extender) extendStripe(es *extendScratch, src, dst []poly.Poly, c0, w int) {
	k, sw := e.Src.K(), e.stripe
	// y_i, one Shoup pass per source row, then the fraction Σ y_i/q_i over
	// the staged rows while they are hot. (The fully fused one-loop variant
	// measured slower: the vector passes keep short independent loop bodies
	// the compiler schedules better.)
	in := stripeRows{polys: src, staged: es.y[:], c0: c0, w: w, stride: sw}
	y := stripeRows{staged: es.y[:], w: w, stride: sw}
	for i, m := range e.Src.Mods {
		// A lane map, so y_i may overwrite its own source row.
		m.VecScalarMulShoupInto(y.row(i), in.row(i), e.Src.QTilde[i], e.qTildeShoup[i])
	}
	es.frac.addRows(e.inv, &y)
	v := es.v[:w]
	if es.frac.roundInto(v, e.eps) {
		exactLanes(v, e.Src.invFrac, &y)
	}
	// out_j: each lazy Shoup product is < 2·c_j < 2^32, so the raw sum of k
	// of them fits a uint64 with room to spare — two y rows per pass over
	// the output to halve its load/store traffic — and one closing pass does
	// the reduction and the quotient correction.
	for j, d := range e.Dst {
		row := e.qStarFlat[j*k : (j+1)*k : (j+1)*k]
		rowS := e.qStarShoupFlat[j*k : (j+1)*k : (j+1)*k]
		o := dst[j].Coeffs[c0 : c0+w]
		d.VecScalarMulShoupLazyInto(o, y.row(0), row[0], rowS[0])
		i := 1
		for ; i+1 < k; i += 2 {
			d.VecScalarMulShoupLazyAdd2Into(o, y.row(i), y.row(i+1), row[i], rowS[i], row[i+1], rowS[i+1])
		}
		if i < k {
			d.VecScalarMulShoupLazyAddInto(o, y.row(i), row[i], rowS[i])
		}
		d.VecExtendFinishInto(o, v, e.qMod[j], e.qModShoup[j])
	}
}

// liftTask is the recycled ChunkTask behind LiftTargetsInto — the closure it
// replaces would heap-escape per call.
type liftTask struct {
	e        *Extender
	src, dst []poly.Poly
}

func (t *liftTask) RunChunk(lo, hi int) {
	var es extendScratch
	for c0 := lo; c0 < hi; c0 += t.e.stripe {
		t.e.extendStripe(&es, t.src, t.dst, c0, min(t.e.stripe, hi-c0))
	}
}

var liftTaskFree = make(chan *liftTask, 16)

func getLiftTask() *liftTask {
	select {
	case t := <-liftTaskFree:
		return t
	default:
		return new(liftTask)
	}
}

func putLiftTask(t *liftTask) {
	*t = liftTask{}
	select {
	case liftTaskFree <- t:
	default:
	}
}

// minLiftChunk is the smallest coefficient stripe worth a goroutine in the
// Lift/Scale fan-out; each coefficient costs tens of word multiplications,
// so stripes amortize hand-off quickly.
const minLiftChunk = 256
