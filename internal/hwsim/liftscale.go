package hwsim

import (
	"repro/internal/poly"
	"repro/internal/rns"
)

// LiftUnit is the Lift q→Q engine. The HPS variant (paper Fig. 6) is a
// five-block pipeline whose bottleneck block emits the seven new residues of
// one coefficient in seven cycles; with two parallel cores the polynomial
// streams through at 2 coefficients per 7 cycles. The traditional variant
// (Fig. 5) is dominated by the long division by q, modeled as a reciprocal
// multiplication retiring DivBitsPerCycle bits per cycle.
type LiftUnit struct {
	Ext    *rns.Extender
	Timing Timing
	N      int
}

// NewLiftUnit wraps the functional extender with the timing model.
func NewLiftUnit(ext *rns.Extender, n int, timing Timing) *LiftUnit {
	return &LiftUnit{Ext: ext, Timing: timing, N: n}
}

// HPSCycles is the cycle count of lifting one full polynomial with the HPS
// block pipeline across the configured parallel cores.
func (l *LiftUnit) HPSCycles() Cycles {
	perCoeff := l.Timing.LiftBlockCyclesPerCoeff
	cores := l.Timing.LiftScaleCores
	return Cycles((l.N*perCoeff+cores-1)/cores + l.Timing.LiftPipelineFill)
}

// TraditionalCyclesPerCoeff is the per-coefficient cost of the traditional
// dataflow: the division block processes a dividend of sop width (log Q plus
// the ~35-bit sum-of-products growth) against a reciprocal of ~log Q bits.
func (l *LiftUnit) TraditionalCyclesPerCoeff() Cycles {
	dividendBits := l.Ext.Src.Product.BitLen() + 35
	precisionBits := l.Ext.Src.Product.BitLen() + 6
	return Cycles(float64(dividendBits+precisionBits)/l.Timing.DivBitsPerCycle + 0.5)
}

// TraditionalCycles is the full-polynomial traditional lift on `cores`
// parallel cores (the paper's slower architecture instantiates four).
func (l *LiftUnit) TraditionalCycles(cores int) Cycles {
	if cores < 1 {
		cores = 1
	}
	return Cycles((l.N*int(l.TraditionalCyclesPerCoeff()) + cores - 1) / cores)
}

// LiftInto functionally extends p (over the source basis) onto dst, the
// target-basis rows of the same polynomial, using the variant's arithmetic,
// and returns the cycles consumed.
func (l *LiftUnit) LiftInto(p poly.RNSPoly, dst []poly.Poly, variant Variant) Cycles {
	if variant == VariantTraditional {
		l.Ext.LiftTargetsTraditionalInto(p, dst)
		return l.TraditionalCycles(l.Timing.LiftScaleCores)
	}
	l.Ext.LiftTargetsInto(p, dst)
	return l.HPSCycles()
}

// ScaleUnit is the Scale Q→q engine (paper Figs. 8 and 9). The HPS variant
// runs its Blocks 1–3 at the same 7-cycle-per-coefficient bottleneck and
// then streams through the Lift pipeline for the p→q base switch; thanks to
// the block-level pipelining of the two phases the total stays almost equal
// to a Lift (Table II: 82.7 µs vs 82.6 µs). The traditional variant's
// division has a twice-wider dividend and reciprocal, making it ~4x the
// traditional lift division (Sec. V-C).
type ScaleUnit struct {
	Sc     *rns.ScaleRounder
	Timing Timing
	N      int
}

// NewScaleUnit wraps the functional scaler with the timing model.
func NewScaleUnit(sc *rns.ScaleRounder, n int, timing Timing) *ScaleUnit {
	return &ScaleUnit{Sc: sc, Timing: timing, N: n}
}

// HPSCycles is the cycle count of scaling one full polynomial: the Scale
// blocks and the reused Lift pipeline overlap block-wise, so the streaming
// time matches a Lift with only a short extra fill for the second phase
// (Table II: 82.7 µs vs 82.6 µs).
func (s *ScaleUnit) HPSCycles() Cycles {
	perCoeff := s.Timing.LiftBlockCyclesPerCoeff
	cores := s.Timing.LiftScaleCores
	return Cycles((s.N*perCoeff+cores-1)/cores + s.Timing.LiftPipelineFill + 200)
}

// TraditionalCyclesPerCoeff: the dividend is the full-basis reconstruction
// times t (~2x the lift's) and the reciprocal precision doubles as well.
func (s *ScaleUnit) TraditionalCyclesPerCoeff() Cycles {
	logBigQ := s.Sc.QB.Product.Mul(s.Sc.PB.Product).BitLen()
	dividendBits := logBigQ + 35
	precisionBits := logBigQ + logBigQ/2 // the paper: precision > 571 for 390-bit Q
	return Cycles(float64(dividendBits+precisionBits)/s.Timing.DivBitsPerCycle + 0.5)
}

// TraditionalCycles is the full-polynomial traditional scale on `cores`
// parallel cores.
func (s *ScaleUnit) TraditionalCycles(cores int) Cycles {
	if cores < 1 {
		cores = 1
	}
	return Cycles((s.N*int(s.TraditionalCyclesPerCoeff()) + cores - 1) / cores)
}

// ScaleInto functionally scales the full-basis polynomial x down to the q
// basis into out (which may be x's own q rows) and returns the cycles
// consumed.
func (s *ScaleUnit) ScaleInto(x, out poly.RNSPoly, variant Variant) Cycles {
	if variant == VariantTraditional {
		s.Sc.ScalePolyTraditionalInto(x, out)
		return s.TraditionalCycles(s.Timing.LiftScaleCores)
	}
	s.Sc.ScalePolyInto(x, out)
	return s.HPSCycles()
}

// Variant selects the co-processor generation: the HPS-optimized fast
// architecture or the traditional multi-precision one.
type Variant int

const (
	VariantHPS Variant = iota
	VariantTraditional
)

func (v Variant) String() string {
	if v == VariantTraditional {
		return "traditional"
	}
	return "hps"
}
