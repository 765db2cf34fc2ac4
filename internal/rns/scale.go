package rns

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/poly"
	"repro/internal/ring"
)

// ScaleRounder computes the paper's Scale Q→q (Sec. IV-D): given the
// residues over the full basis Q = q·p of a centered value x, it returns the
// q-basis residues of y = round(t·x/q), where t is the plaintext modulus.
//
// The HPS path (paper Fig. 9) works mod the p primes first. Writing
// Q̃_k = (Q/q_k)^-1 mod q_k, the exact CRT expansion gives
//
//	t·x/q = Σ_{i∈q} x_i·(t·Q̃_i·p)/q_i + Σ_{j∈p} x_j·t·Q̃_j·(p/p_j) - v·t·p
//
// for the exact CRT quotient v. Modulo a p prime p_j the last term vanishes
// (p_j | p) and the middle sum keeps only its j-th term, so with
// t·Q̃_i·p = W_i·q_i + r_i:
//
//	y mod p_j = Σ_i x_i·W_i + x_j·t·Q̃_j·(p/p_j) + round(Σ_i x_i·r_i/q_i)
//
// — exactly the paper's Block 1–3 structure with integer parts I and real
// parts R of the constants. The fractional sum is evaluated in 128-bit
// fixed point. The result y (centered, |y| ≈ t·|x|/q ≪ p/2 for FV inputs)
// is then base-extended from p to q by reusing the Lift machinery, which is
// precisely what the paper's architecture does ("it reuses the Lift q→Q
// architecture", Sec. VI-A).
type ScaleRounder struct {
	QB *Basis // the q primes
	PB *Basis // the p primes
	QP *Basis // q then p: the full basis Q, its CRT constants and width
	T  uint64 // plaintext modulus

	// Pool, when set, stripes ScalePolyInto's coefficient loop across goroutines
	// (same contract as Extender.Pool: the per-coefficient kernels only read
	// the precomputed tables).
	Pool *poly.Pool

	w     [][]uint64 // w[i][j] = floor(t·Q̃_i·p/q_i) mod p_j
	theta []frac128  // theta[i] = (t·Q̃_i·p mod q_i)/q_i
	bCst  []uint64   // bCst[j] = t·Q̃_j·(p/p_j) mod p_j
	ext   *Extender  // p → q

	// Target-major Shoup layout of the Block 1–3 constants (same strength
	// reduction as Extender), flat like the Extender's tables — one backing
	// array, row j at [j·kq, (j+1)·kq): wFlat[j·kq+i] = w[i][j] with Shoup
	// word wShoupFlat[j·kq+i], bShoup[j] pairs with bCst[j].
	wFlat      []uint64
	wShoupFlat []uint64
	bShoup     []uint64
}

// NewScaleRounder prepares the scale tables. qb and pb must be disjoint.
func NewScaleRounder(qb, pb *Basis, t uint64) (*ScaleRounder, error) {
	if t < 2 {
		return nil, fmt.Errorf("rns: plaintext modulus %d too small", t)
	}
	qp, err := NewBasis(append(append([]ring.Modulus(nil), qb.Mods...), pb.Mods...))
	if err != nil {
		return nil, fmt.Errorf("rns: q and p bases overlap: %w", err)
	}
	if qp.Contains(t) {
		return nil, fmt.Errorf("rns: plaintext modulus %d collides with a basis prime", t)
	}
	ext, err := NewExtender(pb, qb.Mods)
	if err != nil {
		return nil, err
	}
	s := &ScaleRounder{
		QB:    qb,
		PB:    pb,
		QP:    qp,
		T:     t,
		w:     make([][]uint64, qb.K()),
		theta: make([]frac128, qb.K()),
		bCst:  make([]uint64, pb.K()),
		ext:   ext,
	}
	kq := qb.K()
	tb := new(big.Int).SetUint64(t)
	for i, m := range qb.Mods {
		// M_i = t·Q̃_i·p = W_i·q_i + r_i.
		mi := new(big.Int).SetUint64(qp.QTilde[i])
		mi.Mul(mi, tb).Mul(mi, pb.Product)
		wi, ri := mi.QuoRem(mi, new(big.Int).SetUint64(m.Q), new(big.Int))
		s.w[i] = make([]uint64, pb.K())
		for j, d := range pb.Mods {
			s.w[i][j] = modWord(wi, d.Q)
		}
		s.theta[i] = fracDiv(ri.Uint64(), m.Q)
	}
	for j, d := range pb.Mods {
		// B_j = t·Q̃_j·(p/p_j) mod p_j.
		s.bCst[j] = d.Mul(d.Mul(d.Reduce(t), qp.QTilde[kq+j]), modWord(pb.QStar[j], d.Q))
	}
	s.wFlat = make([]uint64, pb.K()*kq)
	s.wShoupFlat = make([]uint64, pb.K()*kq)
	s.bShoup = make([]uint64, pb.K())
	for j, d := range pb.Mods {
		for i := range qb.Mods {
			s.wFlat[j*kq+i] = s.w[i][j]
			s.wShoupFlat[j*kq+i] = d.ShoupPrecomp(s.w[i][j])
		}
		s.bShoup[j] = d.ShoupPrecomp(s.bCst[j])
	}
	return s, nil
}

// Scale computes out = round(t·x/q) mod q-basis from the full-basis residues
// (xq over the q primes, xp over the p primes) using the HPS dataflow.
func (s *ScaleRounder) Scale(xq, xp, out []uint64) {
	s.checkLens(xq, xp, out)
	// Blocks 1–2: fractional and integer sums over the q residues.
	var acc acc192
	for i := range xq {
		acc.addMul(xq[i], s.theta[i])
	}
	r := acc.round()
	var ypArr [16]uint64 // stack scratch for the common basis sizes
	yp := ypArr[:s.PB.K()]
	if s.PB.K() > len(ypArr) {
		yp = make([]uint64, s.PB.K())
	}
	kq := len(xq)
	for j, d := range s.PB.Mods {
		// Each lazy Shoup product is < 2·p_j < 2^32, so the k+1-term sum fits
		// a uint64 with room to spare; one Barrett pass restores the canonical
		// residue. xq/xp residues are canonical (< q_i resp. < p_j), which the
		// Shoup bound x < 2^64 trivially admits.
		base := j * kq
		row := s.wFlat[base : base+kq : base+kq]
		rowS := s.wShoupFlat[base : base+kq : base+kq]
		sum := d.Reduce(r)
		for i, x := range xq {
			sum += d.MulShoupLazy(x, row[i], rowS[i])
		}
		// Block 3: the j-th p-residue's own contribution.
		sum += d.MulShoupLazy(xp[j], s.bCst[j], s.bShoup[j])
		yp[j] = d.Reduce(sum)
	}
	// Blocks 4–5: base switch p → q via the Lift machinery.
	s.ext.Extend(yp, out)
}

// ScaleExact computes the same result with the multi-precision dataflow of
// paper Fig. 8: full CRT reconstruction of x over q·p (Blocks 1–2), the
// exact rounded division round(t·x/q) (Block 3), and reduction modulo the q
// primes (Block 4). It is the correctness oracle and the Traditional
// variant's kernel.
func (s *ScaleRounder) ScaleExact(xq, xp, out []uint64) {
	s.checkLens(xq, xp, out)
	x := s.QP.ReconstructCentered(append(append(make([]uint64, 0, len(xq)+len(xp)), xq...), xp...))
	// q is odd, so t·x/q is never a tie and round(a/q) = ⌊(a + ⌊q/2⌋)/q⌋;
	// Div is Euclidean, the floor for a positive divisor.
	var t big.Int
	x.Mul(x, t.SetUint64(s.T)).Add(x, s.QB.half).Div(x, s.QB.Product)
	for i, qi := range s.QB.Mods {
		out[i] = modWord(x, qi.Q)
	}
}

func (s *ScaleRounder) checkLens(xq, xp, out []uint64) {
	if len(xq) != s.QB.K() || len(xp) != s.PB.K() || len(out) != s.QB.K() {
		panic("rns: Scale residue slice length mismatch")
	}
}

// ScalePolyInto applies the HPS scale coefficient-wise to a full-basis RNS
// polynomial x (rows ordered q primes then p primes), writing the q-basis
// result into the caller-owned out and allocating nothing: the chunk dispatch
// is a recycled task and the residue staging lives on the worker's stack.
// out may be x's own q rows: both kernels read every residue of a stripe
// (the scalar one, of a coefficient) before they write its outputs.
func (s *ScaleRounder) ScalePolyInto(x, out poly.RNSPoly) {
	s.ScalePolyVariantInto(HPS, x, out)
}

// ScalePolyVariantInto is ScalePolyInto through v's dataflow.
func (s *ScaleRounder) ScalePolyVariantInto(v Variant, x, out poly.RNSPoly) {
	kq, kp := s.QB.K(), s.PB.K()
	if x.Level() != kq+kp {
		panic("rns: ScalePoly level mismatch")
	}
	if out.Level() != kq {
		panic("rns: ScalePoly output level mismatch")
	}
	t := getScaleTask()
	t.s, t.src, t.dst, t.traditional = s, x.Rows, out.Rows, v == Traditional
	s.Pool.RunChunksTask(x.N(), minScaleChunk, t)
	putScaleTask(t)
}

// scaleTask is the recycled ChunkTask behind ScalePolyInto.
type scaleTask struct {
	s           *ScaleRounder
	src, dst    []poly.Poly
	traditional bool
}

func (t *scaleTask) RunChunk(lo, hi int) {
	s := t.s
	kq, kp := s.QB.K(), s.PB.K()
	if t.traditional || kq > stackResidues || kp > stackResidues {
		t.runScalar(lo, hi)
		return
	}
	// Row-major stripe kernel, the Scale analogue of Extender.extendStripe:
	// per lane it runs the exact Block 1–3 arithmetic of Scale — the acc192
	// fractional sum in three parallel limb arrays (same q-row order), the lazy
	// Shoup sums seeded with Reduce(r) and accumulated raw in the same order,
	// the same closing reductions — then hands the yp stripe rows straight to
	// the row-major extension. Bit-identical to the coefficient-major path.
	// The yp stripe rows are staged directly in the extension scratch's y
	// slots (row j at offset j·liftStripe — the same place extendStripe will
	// put its y_j row). extendStripe consumes source row j exactly while
	// producing y_j through a pure lane map, so the aliasing is safe and
	// saves a second 16 KiB staging buffer.
	var es extendScratch
	ypBuf := &es.y
	var w0, w1, w2, rv [liftStripe]uint64
	var xin, in, out [stackResidues][]uint64
	src, dst := t.src, t.dst
	for c0 := lo; c0 < hi; c0 += liftStripe {
		c1 := c0 + liftStripe
		if c1 > hi {
			c1 = hi
		}
		w := c1 - c0
		// Blocks 1–2: fractional sum r = round(Σ x_i·r_i/q_i) per lane. The q
		// source row stripes are staged once into `in` for the column walks.
		for c := 0; c < w; c++ {
			w0[c], w1[c], w2[c] = 0, 0, 0
		}
		for i := 0; i < kq; i++ {
			f := s.theta[i]
			x := src[i].Coeffs[c0:c1:c1]
			xin[i] = x
			for c, xc := range x {
				hi1, lo1 := bits.Mul64(xc, f.lo)
				hi2, lo2 := bits.Mul64(xc, f.hi)
				var cc uint64
				w0[c], cc = bits.Add64(w0[c], lo1, 0)
				w1[c], cc = bits.Add64(w1[c], hi1, cc)
				w2[c] += cc
				w1[c], cc = bits.Add64(w1[c], lo2, 0)
				w2[c] += hi2 + cc
			}
		}
		for c := 0; c < w; c++ {
			vv := w2[c]
			if w1[c] >= 1<<63 {
				vv++
			}
			rv[c] = vv
		}
		// Blocks 2–3 per p prime: yp_j = Reduce(Reduce(r) + Σ_i x_i·W_i +
		// x_j·B_j), the sums lazy and raw exactly as in Scale — the raw
		// uint64 sum is accumulated in the same term order, so it is
		// word-for-word identical.
		for j, d := range s.PB.Mods {
			base := j * kq
			row := s.wFlat[base : base+kq : base+kq]
			rowS := s.wShoupFlat[base : base+kq : base+kq]
			yp := ypBuf[j*liftStripe : j*liftStripe+w : j*liftStripe+w]
			d.VecReduceInto(yp, rv[:w])
			i := 0
			for ; i+1 < kq; i += 2 {
				d.VecScalarMulShoupLazyAdd2Into(yp, xin[i], xin[i+1],
					row[i], rowS[i], row[i+1], rowS[i+1])
			}
			if i < kq {
				d.VecScalarMulShoupLazyAddInto(yp, xin[i], row[i], rowS[i])
			}
			d.VecScalarMulShoupLazyAddInto(yp, src[kq+j].Coeffs[c0:c1], s.bCst[j], s.bShoup[j])
			d.VecReduceInto(yp, yp)
			in[j] = yp
		}
		// Blocks 4–5: base switch p → q through the row-major Lift kernel.
		for i := 0; i < kq; i++ {
			out[i] = dst[i].Coeffs[c0:c1]
		}
		s.ext.extendStripe(&es, in[:kp], out[:kq], w)
	}
}

// runScalar is the coefficient-major fallback: the traditional dataflow and
// bases too wide for the stripe kernel's stack staging.
func (t *scaleTask) runScalar(lo, hi int) {
	s := t.s
	kq, kp := s.QB.K(), s.PB.K()
	var xqArr, xpArr, resArr [stackResidues]uint64
	var xq, xp, res []uint64
	if kq <= stackResidues && kp <= stackResidues {
		xq, xp, res = xqArr[:kq], xpArr[:kp], resArr[:kq]
	} else {
		xq, xp, res = make([]uint64, kq), make([]uint64, kp), make([]uint64, kq)
	}
	src, dst := t.src, t.dst
	for c := lo; c < hi; c++ {
		for i := 0; i < kq; i++ {
			xq[i] = src[i].Coeffs[c]
		}
		for j := 0; j < kp; j++ {
			xp[j] = src[kq+j].Coeffs[c]
		}
		if t.traditional {
			s.ScaleExact(xq, xp, res)
		} else {
			s.Scale(xq, xp, res)
		}
		for i := 0; i < kq; i++ {
			dst[i].Coeffs[c] = res[i]
		}
	}
}

var scaleTaskFree = make(chan *scaleTask, 16)

func getScaleTask() *scaleTask {
	select {
	case t := <-scaleTaskFree:
		return t
	default:
		return new(scaleTask)
	}
}

func putScaleTask(t *scaleTask) {
	*t = scaleTask{}
	select {
	case scaleTaskFree <- t:
	default:
	}
}

// minScaleChunk matches the Lift fan-out grain (the Scale blocks stream
// through the reused Lift pipeline, Sec. VI-A).
const minScaleChunk = 256
