package rns

import (
	"fmt"
	"math/bits"

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
// Two implementations are provided with identical semantics:
//
//   - Extend: the HPS method (Eq. 2 of the paper) — per-prime products and
//     a fixed-point estimate of the quotient v′, no long arithmetic.
//   - ExtendExact: the traditional CRT method (Eq. 1) — the exact
//     reconstruction of Basis.ReconstructCentered, then the reductions
//     modulo each target prime. It is the oracle and the Traditional
//     variant's kernel.
type Extender struct {
	Src *Basis
	Dst []ring.Modulus

	// Pool, when set, stripes the lift's coefficient loop across goroutines —
	// the software counterpart of the paper's two parallel Lift cores
	// streaming disjoint coefficients (Sec. V-B2). The per-coefficient
	// Extend* kernels are pure w.r.t. the Extender, so stripes never share
	// mutable state.
	Pool *poly.Pool

	qStarMod [][]uint64 // qStarMod[i][j] = (Q/q_i) mod c_j
	qMod     []uint64   // qMod[j] = Q mod c_j

	// Shoup companions of the hot-loop constants, laid out target-major and
	// *flat* — one backing array, row j at [j·k, (j+1)·k) — so the
	// per-coefficient kernel walks a single contiguous []uint64 with no
	// second-level pointer chase: qStarFlat[j·k+i] = qStarMod[i][j] with
	// qStarShoupFlat[j·k+i] its Shoup word; qTilde/qTildeShoup are the
	// source-basis q̃_i pairs; qModShoup[j] pairs with qMod[j]. These let
	// Extend replace every Barrett reduce-and-multiply with a
	// two-multiplication Shoup product, the same strength reduction the
	// paper's Lift pipeline gets from its constant-operand multipliers.
	qTilde         []uint64
	qTildeShoup    []uint64
	qStarFlat      []uint64
	qStarShoupFlat []uint64
	qModShoup      []uint64
}

// NewExtender prepares the extension tables from src to dst.
func NewExtender(src *Basis, dst []ring.Modulus) (*Extender, error) {
	for _, d := range dst {
		if src.Contains(d.Q) {
			return nil, fmt.Errorf("rns: target modulus %d already in source basis", d.Q)
		}
	}
	e := &Extender{
		Src:      src,
		Dst:      append([]ring.Modulus(nil), dst...),
		qStarMod: make([][]uint64, src.K()),
		qMod:     make([]uint64, len(dst)),
	}
	for i := range src.Mods {
		e.qStarMod[i] = make([]uint64, len(dst))
		for j, d := range dst {
			e.qStarMod[i][j] = modWord(src.QStar[i], d.Q)
		}
	}
	for j, d := range dst {
		e.qMod[j] = modWord(src.Product, d.Q)
	}
	e.qTilde = make([]uint64, src.K())
	e.qTildeShoup = make([]uint64, src.K())
	for i, m := range src.Mods {
		e.qTilde[i] = src.QTilde[i]
		e.qTildeShoup[i] = m.ShoupPrecomp(src.QTilde[i])
	}
	k := src.K()
	e.qStarFlat = make([]uint64, len(dst)*k)
	e.qStarShoupFlat = make([]uint64, len(dst)*k)
	e.qModShoup = make([]uint64, len(dst))
	for j, d := range dst {
		for i := range src.Mods {
			e.qStarFlat[j*k+i] = e.qStarMod[i][j]
			e.qStarShoupFlat[j*k+i] = d.ShoupPrecomp(e.qStarMod[i][j])
		}
		e.qModShoup[j] = d.ShoupPrecomp(e.qMod[j])
	}
	return e, nil
}

// Extend computes the target residues of the centered value from the source
// residues using the HPS approximate CRT:
//
//	y_i = a_i·q̃_i mod q_i
//	v′  = round(Σ y_i/q_i)             (128-bit fixed point)
//	out_j = Σ y_i·(q*_i mod c_j) - v′·(Q mod c_j)   (mod c_j)
//
// Because v′ is the *rounded* quotient, the reconstructed value is the
// centered representative: Σ y_i·q*_i = x + k·Q for some integer k, and
// Σ y_i/q_i = k + x/Q, so v′ = k when x < Q/2 and k+1 otherwise.
func (e *Extender) Extend(in, out []uint64) {
	e.checkLens(in, out)
	var acc acc192
	var yArr [16]uint64 // stack scratch for the common basis sizes
	y := yArr[:0]
	if len(in) > len(yArr) {
		y = make([]uint64, 0, len(in))
	}
	for i, m := range e.Src.Mods {
		yi := m.MulShoup(in[i], e.qTilde[i], e.qTildeShoup[i])
		y = append(y, yi)
		acc.addMul(yi, e.Src.invFrac[i])
	}
	v := acc.round()
	k := len(y)
	for j, d := range e.Dst {
		// Each Shoup product is lazy (< 2·c_j < 2^32), so the sum of k of
		// them fits a uint64 with room to spare; one Barrett pass at the end
		// restores the canonical residue.
		base := j * k
		row := e.qStarFlat[base : base+k : base+k]
		rowS := e.qStarShoupFlat[base : base+k : base+k]
		var sum uint64
		for i, yi := range y {
			sum += d.MulShoupLazy(yi, row[i], rowS[i])
		}
		vq := d.MulShoup(v, e.qMod[j], e.qModShoup[j])
		out[j] = d.Sub(d.Reduce(sum), vq)
	}
}

// ExtendExact reconstructs the centered value exactly and reduces it modulo
// each target prime. It is the correctness oracle for Extend.
func (e *Extender) ExtendExact(in, out []uint64) {
	e.checkLens(in, out)
	x := e.Src.ReconstructCentered(in)
	for j, d := range e.Dst {
		out[j] = modWord(x, d.Q)
	}
}

func (e *Extender) checkLens(in, out []uint64) {
	if len(in) != e.Src.K() || len(out) != len(e.Dst) {
		panic("rns: Extend residue slice length mismatch")
	}
}

// LiftTargetsInto applies the HPS extension coefficient-wise to an RNS
// polynomial over the source basis (the paper's Lift q→Q of a full
// polynomial: the q residues are kept, the p residues computed). It computes
// only the *target* residue rows, into dst (len(dst) = len(e.Dst), each row
// over the matching target modulus, n coefficients), allocating nothing: the
// chunk dispatch is a recycled task and the per-coefficient residue staging
// lives on the worker's stack. The kept source rows are the caller's to reuse — the
// evaluator NTT-transforms them straight out of the input with no copy.
func (e *Extender) LiftTargetsInto(p poly.RNSPoly, dst []poly.Poly) {
	e.LiftTargetsVariantInto(HPS, p, dst)
}

// LiftTargetsVariantInto is LiftTargetsInto through v's dataflow.
func (e *Extender) LiftTargetsVariantInto(v Variant, p poly.RNSPoly, dst []poly.Poly) {
	if p.Level() != e.Src.K() {
		panic("rns: polynomial level does not match source basis")
	}
	if len(dst) != len(e.Dst) {
		panic("rns: lift target row count mismatch")
	}
	t := getLiftTask()
	t.e, t.src, t.dst, t.traditional = e, p.Rows, dst, v == Traditional
	e.Pool.RunChunksTask(p.N(), minLiftChunk, t)
	putLiftTask(t)
}

// stackResidues bounds the basis sizes whose per-coefficient residue staging
// fits the chunk kernels' stack arrays; the paper's 6+7 layout is well
// inside it. Wider bases fall back to a per-chunk heap buffer.
const stackResidues = 16

// liftStripe is the coefficient width of the row-major Extend kernel: wide
// enough to amortize the per-row constant loads, narrow enough that the y
// staging rows and accumulator limbs stay resident in L1 across the passes.
const liftStripe = 128

// extendScratch is the stack staging of the row-major Extend kernel: the k y
// rows, the three acc192 limb arrays, and the rounded quotients. Callers
// declare one per chunk and thread it through every stripe, so the ~20 KiB
// zero-initialization happens once per chunk rather than once per stripe.
type extendScratch struct {
	y          [stackResidues * liftStripe]uint64
	w0, w1, w2 [liftStripe]uint64
	v          [liftStripe]uint64
}

// extendStripe is the HPS Extend over a stripe of w ≤ liftStripe coefficients,
// walked row-major: in[i][:w] hold the source residues, out[j][:w] receive the
// target residues. Per lane it runs the exact arithmetic of Extend — the same
// Shoup products, the same acc192 limb schedule in the same source order (the
// three accumulator words live in parallel arrays), the same lazy sums and
// closing reductions — so results are bit-identical; only the loop nesting
// changes, from coefficient-major to row-major vector passes. Requires source
// and target counts ≤ stackResidues.
func (e *Extender) extendStripe(es *extendScratch, in, out [][]uint64, w int) {
	yBuf := &es.y
	w0, w1, w2, v := &es.w0, &es.w1, &es.w2, &es.v
	k := e.Src.K()
	// y_i = a_i·q̃_i mod q_i, one Shoup pass per source row, with the
	// fractional sum Σ y_i/q_i accumulated alongside while y_i is hot. (The
	// fully fused one-loop variant measured slower: the vector passes keep
	// short independent loop bodies the compiler schedules better.)
	for c := 0; c < w; c++ {
		w0[c], w1[c], w2[c] = 0, 0, 0
	}
	for i, m := range e.Src.Mods {
		y := yBuf[i*liftStripe : i*liftStripe+w : i*liftStripe+w]
		m.VecScalarMulShoupInto(y, in[i][:w], e.qTilde[i], e.qTildeShoup[i])
		f := e.Src.invFrac[i]
		for c, yc := range y {
			hi1, lo1 := bits.Mul64(yc, f.lo)
			hi2, lo2 := bits.Mul64(yc, f.hi)
			var cc uint64
			w0[c], cc = bits.Add64(w0[c], lo1, 0)
			w1[c], cc = bits.Add64(w1[c], hi1, cc)
			w2[c] += cc
			w1[c], cc = bits.Add64(w1[c], lo2, 0)
			w2[c] += hi2 + cc
		}
	}
	// v′ = round(Σ y_i/q_i): acc192.round per lane.
	for c := 0; c < w; c++ {
		vv := w2[c]
		if w1[c] >= 1<<63 {
			vv++
		}
		v[c] = vv
	}
	// out_j = Σ y_i·(q*_i mod c_j) - v′·(Q mod c_j) (mod c_j): lazy Shoup
	// sums accumulated raw in the same i order as Extend — two y rows per
	// pass over the output to halve its load/store traffic — and one closing
	// pass for the reduction and quotient correction.
	for j, d := range e.Dst {
		base := j * k
		row := e.qStarFlat[base : base+k : base+k]
		rowS := e.qStarShoupFlat[base : base+k : base+k]
		o := out[j][:w]
		d.VecScalarMulShoupLazyInto(o, yBuf[:w], row[0], rowS[0])
		i := 1
		for ; i+1 < k; i += 2 {
			d.VecScalarMulShoupLazyAdd2Into(o,
				yBuf[i*liftStripe:i*liftStripe+w], yBuf[(i+1)*liftStripe:(i+1)*liftStripe+w],
				row[i], rowS[i], row[i+1], rowS[i+1])
		}
		if i < k {
			d.VecScalarMulShoupLazyAddInto(o, yBuf[i*liftStripe:i*liftStripe+w], row[i], rowS[i])
		}
		d.VecExtendFinishInto(o, v[:w], e.qMod[j], e.qModShoup[j])
	}
}

// liftTask is the recycled ChunkTask behind LiftTargetsInto — the closure it
// replaces would heap-escape per call.
type liftTask struct {
	e           *Extender
	src, dst    []poly.Poly
	traditional bool
}

func (t *liftTask) RunChunk(lo, hi int) {
	e := t.e
	k := e.Src.K()
	kt := len(e.Dst)
	if t.traditional || k > stackResidues || kt > stackResidues {
		t.runScalar(lo, hi)
		return
	}
	var es extendScratch
	var in, out [stackResidues][]uint64
	src, dst := t.src, t.dst
	for c0 := lo; c0 < hi; c0 += liftStripe {
		c1 := c0 + liftStripe
		if c1 > hi {
			c1 = hi
		}
		for i := 0; i < k; i++ {
			in[i] = src[i].Coeffs[c0:c1]
		}
		for j := 0; j < kt; j++ {
			out[j] = dst[j].Coeffs[c0:c1]
		}
		e.extendStripe(&es, in[:k], out[:kt], c1-c0)
	}
}

// runScalar is the coefficient-major fallback: the traditional CRT dataflow
// and bases too wide for the stripe kernel's stack staging.
func (t *liftTask) runScalar(lo, hi int) {
	e := t.e
	k := e.Src.K()
	kt := len(e.Dst)
	var inArr, resArr [stackResidues]uint64
	var in, res []uint64
	if k <= stackResidues && kt <= stackResidues {
		in, res = inArr[:k], resArr[:kt]
	} else {
		in, res = make([]uint64, k), make([]uint64, kt)
	}
	src, dst := t.src, t.dst
	for c := lo; c < hi; c++ {
		for i := range in {
			in[i] = src[i].Coeffs[c]
		}
		if t.traditional {
			e.ExtendExact(in, res)
		} else {
			e.Extend(in, res)
		}
		for j := range res {
			dst[j].Coeffs[c] = res[j]
		}
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
