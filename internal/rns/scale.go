package rns

import (
	"fmt"
	"math/big"

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
// parts R of the constants. The fractional sum is estimated in float64 and
// settled in 128-bit fixed point near a tie (DESIGN §4b). The result y
// (centered, |y| ≈ t·|x|/q ≪ p/2 for FV inputs) is then base-extended from p
// to q by reusing the Lift machinery, which is precisely what the paper's
// architecture does ("it reuses the Lift q→Q architecture", Sec. VI-A).
type ScaleRounder struct {
	QB *Basis // the q primes
	PB *Basis // the p primes
	QP *Basis // q then p: the full basis Q, its CRT constants and width
	T  uint64 // plaintext modulus

	// Pool, when set, stripes ScalePolyInto's coefficient loop across
	// goroutines (same contract as Extender.Pool: the stripe kernel only
	// reads the precomputed tables).
	Pool *poly.Pool

	theta []frac128 // theta[i] = (t·Q̃_i·p mod q_i)/q_i
	// thetaF[i] = fl(theta[i]), the float64 terms of the fraction estimate,
	// and eps its tie band (fracLanes): the lanes within it are settled in
	// acc192 from theta.
	thetaF []float64
	eps    float64
	ext    *Extender // p → q

	// Target-major Shoup layout of the Block 1–3 constants (the same
	// strength reduction as Extender), flat like the Extender's tables — one
	// backing array, row j at [j·kq, (j+1)·kq): wFlat[j·kq+i] =
	// ⌊t·Q̃_i·p/q_i⌋ mod p_j with Shoup word wShoupFlat[j·kq+i];
	// bCst[j] = t·Q̃_j·(p/p_j) mod p_j with Shoup word bShoup[j].
	wFlat      []uint64
	wShoupFlat []uint64
	bCst       []uint64
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
	kq, kp := qb.K(), pb.K()
	if uint64((kq+1)*(kq+1)) > 1<<52/qb.maxQ() {
		return nil, fmt.Errorf("rns: q basis of %d primes too wide for the float64 fraction estimate", kq)
	}
	ext, err := NewExtender(pb, qb.Mods)
	if err != nil {
		return nil, err
	}
	s := &ScaleRounder{
		QB:         qb,
		PB:         pb,
		QP:         qp,
		T:          t,
		theta:      make([]frac128, kq),
		thetaF:     make([]float64, kq),
		eps:        fracEps(kq, qb.maxQ()),
		ext:        ext,
		wFlat:      make([]uint64, kp*kq),
		wShoupFlat: make([]uint64, kp*kq),
		bCst:       make([]uint64, kp),
		bShoup:     make([]uint64, kp),
	}
	tb := new(big.Int).SetUint64(t)
	for i, m := range qb.Mods {
		// M_i = t·Q̃_i·p = W_i·q_i + r_i.
		mi := new(big.Int).SetUint64(qp.QTilde[i])
		mi.Mul(mi, tb).Mul(mi, pb.Product)
		wi, ri := mi.QuoRem(mi, new(big.Int).SetUint64(m.Q), new(big.Int))
		for j, d := range pb.Mods {
			s.wFlat[j*kq+i] = modWord(wi, d.Q)
			s.wShoupFlat[j*kq+i] = d.ShoupPrecomp(s.wFlat[j*kq+i])
		}
		s.theta[i] = fracDiv(ri.Uint64(), m.Q)
		s.thetaF[i] = float64(ri.Uint64()) / float64(m.Q)
	}
	for j, d := range pb.Mods {
		// B_j = t·Q̃_j·(p/p_j) mod p_j.
		s.bCst[j] = d.Mul(d.Mul(d.Reduce(t), qp.QTilde[kq+j]), modWord(pb.QStar[j], d.Q))
		s.bShoup[j] = d.ShoupPrecomp(s.bCst[j])
	}
	return s, nil
}

// ScaleExact computes the same result with the multi-precision dataflow of
// paper Fig. 8: full CRT reconstruction of x over q·p (Blocks 1–2), the
// exact rounded division round(t·x/q) (Block 3), and reduction modulo the q
// primes (Block 4). It is the correctness oracle of ScalePolyInto, one
// coefficient's residues at a time.
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
		panic("rns: ScaleExact residue slice length mismatch")
	}
}

// ScalePolyInto applies the HPS scale coefficient-wise to a full-basis RNS
// polynomial x (rows ordered q primes then p primes), writing the q-basis
// result into the caller-owned out and allocating nothing at any basis
// width: the chunk dispatch is a recycled task and the stripe staging lives
// on the worker's stack. out may be x's own q rows: the kernel reads every
// residue of a stripe before it writes the stripe's outputs.
func (s *ScaleRounder) ScalePolyInto(x, out poly.RNSPoly) {
	kq, kp := s.QB.K(), s.PB.K()
	if x.Level() != kq+kp {
		panic("rns: ScalePoly level mismatch")
	}
	if out.Level() != kq {
		panic("rns: ScalePoly output level mismatch")
	}
	t := getScaleTask()
	t.s, t.src, t.dst = s, x.Rows, out.Rows
	s.Pool.RunChunksTask(x.N(), minScaleChunk, t)
	putScaleTask(t)
}

// scaleTask is the recycled ChunkTask behind ScalePolyInto.
type scaleTask struct {
	s        *ScaleRounder
	src, dst []poly.Poly
}

// RunChunk is the row-major Scale kernel. It walks the extension's stripes
// (their width set by the p basis) and per stripe runs Blocks 1–3 as vector
// passes — the fraction r = round(Σ x_i·r_i/q_i) in the fraction lanes, then
// per p prime the lazy Shoup sum yp_j = Σ_i x_i·W_i + x_j·B_j + r — staged
// straight into the extension scratch's y row j, where the Lift kernel reads
// its source row j (Blocks 4–5, the base switch p → q that reuses the Lift
// pipeline, Sec. VI-A).
func (t *scaleTask) RunChunk(lo, hi int) {
	s := t.s
	kq, sw := s.QB.K(), s.ext.stripe
	src, dst := t.src, t.dst
	var es extendScratch
	for c0 := lo; c0 < hi; c0 += sw {
		w := min(sw, hi-c0)
		c1 := c0 + w
		// Blocks 1–2: the fractional sum over the q residues, per lane.
		x := stripeRows{polys: src[:kq], c0: c0, w: w}
		es.frac.addRows(s.thetaF, &x)
		r := es.v[:w] // consumed below, before the extension rewrites es.v
		if es.frac.roundInto(r, s.eps) {
			exactLanes(r, s.theta, &x)
		}
		// Blocks 2–3 per p prime: each lazy Shoup product is < 2·p_j < 2^32,
		// so the raw sum of kq+1 of them and Reduce(r) fits a uint64 with
		// room to spare; one Barrett pass restores the canonical residue.
		for j, d := range s.PB.Mods {
			row := s.wFlat[j*kq : (j+1)*kq : (j+1)*kq]
			rowS := s.wShoupFlat[j*kq : (j+1)*kq : (j+1)*kq]
			yp := es.y[j*sw : j*sw+w : j*sw+w]
			d.VecReduceInto(yp, r)
			i := 0
			for ; i+1 < kq; i += 2 {
				d.VecScalarMulShoupLazyAdd2Into(yp, src[i].Coeffs[c0:c1], src[i+1].Coeffs[c0:c1],
					row[i], rowS[i], row[i+1], rowS[i+1])
			}
			if i < kq {
				d.VecScalarMulShoupLazyAddInto(yp, src[i].Coeffs[c0:c1], row[i], rowS[i])
			}
			d.VecScalarMulShoupLazyAddInto(yp, src[kq+j].Coeffs[c0:c1], s.bCst[j], s.bShoup[j])
			d.VecReduceInto(yp, yp)
		}
		// Blocks 4–5: base switch p → q from the staged rows.
		s.ext.extendStripe(&es, nil, dst, c0, w)
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
