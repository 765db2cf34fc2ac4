package sched

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/faults"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/rlwe"
)

// CKKS memory-file slot assignments. Level-ℓ operations hold ℓ+1 chain rows
// per ciphertext polynomial; the keyswitch scratch (digit, key, SoP,
// accumulators) additionally carries the p* extension row.
const (
	ckSlotA0    = iota // operand a0 → c0 after tensor
	ckSlotA1           // operand a1 → a1·b0 cross term → rescaled c0'
	ckSlotB0           // operand b0 → rescaled c1'
	ckSlotB1           // operand b1 → c2 (relin input)
	ckSlotT1           // tensor accumulator c1
	ckSlotDigit        // current keyswitch digit (extended rows)
	ckSlotSop          // keyswitch product scratch (extended rows)
	ckSlotKey          // streamed key component (extended rows)
	ckSlotAcc0         // SoP accumulator 0 (extended) → combined c0
	ckSlotAcc1         // SoP accumulator 1 (extended) → combined c1
	ckSlotMd0          // ModDown landing 0 (chain rows)
	ckSlotMd1          // ModDown landing 1 (chain rows)
	ckNumSlots
)

// CKKSMinSlots returns the memory-file size the CKKS schedules need.
func CKKSMinSlots() int { return ckNumSlots }

// CKKSScheduler compiles CKKS operations into chain co-processor programs.
// The modulus chain makes the hardware shape level-dependent — a level-ℓ
// ciphertext has ℓ+1 residue rows and its keys carry the p* extension — so
// the scheduler keeps one chain co-processor per level, built lazily on
// first use, all feeding one shared Stats ledger. Robustness attachments
// (integrity checker, fault injector, metrics) set before or after
// construction propagate to every instance, current and future.
type CKKSScheduler struct {
	P      *ckks.Params
	Timing hwsim.Timing

	Stats *hwsim.Stats

	coprocs []*hwsim.Coprocessor

	// rd and perm are the host side of the Rotate readback, sized for the
	// top of the chain and sliced to the operand's level. One pair serves
	// every level: the chain co-processors never run concurrently.
	rd, perm poly.RNSPoly

	integritySeed *int64
	injector      *faults.Injector
	metrics       *obs.Registry
}

// NewCKKS returns a scheduler over params with the given timing calibration.
func NewCKKS(p *ckks.Params, timing hwsim.Timing) *CKKSScheduler {
	return &CKKSScheduler{
		P:       p,
		Timing:  timing,
		Stats:   &hwsim.Stats{PerOp: map[hwsim.Op]*hwsim.OpStat{}},
		coprocs: make([]*hwsim.Coprocessor, p.Cfg.QCount),
	}
}

// EnableIntegrity switches fingerprint verification on for every chain
// co-processor (current and lazily built later), with per-level seeds
// derived from seed.
func (s *CKKSScheduler) EnableIntegrity(seed int64) error {
	s.integritySeed = &seed
	for l, c := range s.coprocs {
		if c == nil {
			continue
		}
		if err := c.EnableIntegrity(seed + int64(l)); err != nil {
			return err
		}
	}
	return nil
}

// SetInjector attaches a fault injector to every chain co-processor (nil
// detaches).
func (s *CKKSScheduler) SetInjector(inj *faults.Injector) {
	s.injector = inj
	for _, c := range s.coprocs {
		if c != nil {
			c.SetInjector(inj)
		}
	}
}

// SetMetrics routes integrity counters into reg (nil-safe).
func (s *CKKSScheduler) SetMetrics(reg *obs.Registry) {
	s.metrics = reg
	for _, c := range s.coprocs {
		if c != nil {
			c.SetMetrics(reg)
		}
	}
}

// ResetStats zeroes the shared statistics ledger.
func (s *CKKSScheduler) ResetStats() {
	*s.Stats = hwsim.Stats{PerOp: map[hwsim.Op]*hwsim.OpStat{}}
}

// coprocAt returns the level-ℓ chain co-processor, building it on first
// use: chain prefix q_0..q_ℓ, the special prime p*, the level's gadget
// basis, and the shared Stats ledger.
func (s *CKKSScheduler) coprocAt(level int) (*hwsim.Coprocessor, error) {
	if level < 0 || level >= len(s.coprocs) {
		return nil, fmt.Errorf("sched: level %d outside the chain", level)
	}
	if s.coprocs[level] != nil {
		return s.coprocs[level], nil
	}
	p := s.P
	c, err := hwsim.NewCoprocessorChain(p.QMods[:level+1], p.PMod, p.BasisLevel[level],
		p.N(), p.Pool, s.Timing, ckNumSlots)
	if err != nil {
		return nil, err
	}
	c.Stats = s.Stats
	if s.integritySeed != nil {
		if err := c.EnableIntegrity(*s.integritySeed + int64(level)); err != nil {
			return nil, err
		}
	}
	c.SetInjector(s.injector)
	c.SetMetrics(s.metrics)
	s.coprocs[level] = c
	return c, nil
}

// chainPolyBytes is the DMA size of one level-ℓ ciphertext polynomial.
func (s *CKKSScheduler) chainPolyBytes(level int) int {
	return hwsim.PolyBytes(s.P.N(), level+1)
}

// ksPolyBytes is the DMA size of one extended-row key component.
func (s *CKKSScheduler) ksPolyBytes(level int) int {
	return hwsim.PolyBytes(s.P.N(), level+2)
}

// sendOperands DMAs the operand polynomials into consecutive slots starting
// at ckSlotA0 (coefficient domain, one contiguous burst).
func (s *CKKSScheduler) sendOperands(cp *hwsim.Coprocessor, level int, els ...poly.RNSPoly) {
	bytes := 0
	for i, el := range els {
		cp.LoadSlotCoeff(uint8(ckSlotA0+i), 0, el.Rows)
		bytes += s.chainPolyBytes(level)
	}
	cp.Transfer(hwsim.Transfer{Bytes: bytes, Label: "send ciphertexts"})
}

// ckksScales validates operand scale alignment the way the software
// evaluator does, as a typed error instead of a panic (the scheduler faces
// wire-derived ciphertexts).
func ckksScales(a, b float64) (float64, error) {
	hi, lo := a, b
	if hi < lo {
		hi, lo = lo, hi
	}
	if (hi-lo)/hi > 1e-9 {
		return 0, fmt.Errorf("sched: ckks scale mismatch (%g vs %g)", a, b)
	}
	return hi, nil
}

// Add executes CKKS addition on the level's chain co-processor: one
// coefficient-wise addition per element. Returns the result and the compute
// cycles (transfers excluded, as in the BFV Add).
func (s *CKKSScheduler) Add(a, b *ckks.Ciphertext) (*ckks.Ciphertext, hwsim.Cycles, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: ckks Add expects degree-1 ciphertexts")
	}
	if a.Level() != b.Level() {
		return nil, 0, fmt.Errorf("sched: ckks Add level mismatch (%d vs %d)", a.Level(), b.Level())
	}
	scale, err := ckksScales(a.Scale, b.Scale)
	if err != nil {
		return nil, 0, err
	}
	level := a.Level()
	cp, err := s.coprocAt(level)
	if err != nil {
		return nil, 0, err
	}
	cp.ClearSlots()
	s.sendOperands(cp, level, a.Els[0], a.Els[1], b.Els[0], b.Els[1])
	start := s.Stats.Total
	for i := 0; i < 2; i++ {
		if _, err := cp.Exec(hwsim.Instr{
			Op: hwsim.OpCAdd, Dst: uint8(ckSlotAcc0 + i),
			A: uint8(ckSlotA0 + i), B: uint8(ckSlotB0 + i), Batch: hwsim.BatchQ,
		}); err != nil {
			return nil, 0, err
		}
	}
	compute := s.Stats.Total - start
	if err := cp.Scrub(); err != nil {
		return nil, 0, err
	}
	out := s.receive(cp, level, ckSlotAcc0, ckSlotAcc1)
	out.Scale = scale
	return out, compute, nil
}

// MulRescale executes the full CKKS multiply — tensor, relinearize through
// the hybrid keyswitch, and the trailing Rescale — returning the degree-1
// result one level down. The compute cycles include the key streaming, as
// in the BFV Mult accounting.
func (s *CKKSScheduler) MulRescale(a, b *ckks.Ciphertext, rk *ckks.RelinKey) (*ckks.Ciphertext, hwsim.Cycles, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: ckks Mul expects degree-1 ciphertexts")
	}
	if a.Level() != b.Level() {
		return nil, 0, fmt.Errorf("sched: ckks Mul level mismatch (%d vs %d)", a.Level(), b.Level())
	}
	level := a.Level()
	if level < 1 {
		return nil, 0, fmt.Errorf("sched: ckks Mul at level 0 — no level left to rescale into")
	}
	lk := rk.At(level)
	if lk == nil {
		return nil, 0, fmt.Errorf("sched: relin key has no level-%d bundle", level)
	}
	cp, err := s.coprocAt(level)
	if err != nil {
		return nil, 0, err
	}
	cp.ClearSlots()
	s.sendOperands(cp, level, a.Els[0], a.Els[1], b.Els[0], b.Els[1])
	start := s.Stats.Total

	// Phase 1: transform the four operands to the NTT domain (chain rows
	// only — CKKS multiplies over the live chain, no basis lift).
	operands := []uint8{ckSlotA0, ckSlotA1, ckSlotB0, ckSlotB1}
	for _, slot := range operands {
		if err := s.execAll(cp,
			hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: hwsim.BatchQ},
			hwsim.Instr{Op: hwsim.OpNTT, A: slot, Batch: hwsim.BatchQ}); err != nil {
			return nil, 0, err
		}
	}
	// Phase 2: tensor with operand-overwriting reuse:
	//   T1 = a0·b1;  B1 = a1·b1 (c2);  A1 = a1·b0;  T1 += A1 (c1);
	//   A0 = a0·b0 (c0).
	if err := s.execAll(cp,
		hwsim.Instr{Op: hwsim.OpCMul, Dst: ckSlotT1, A: ckSlotA0, B: ckSlotB1, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCMul, Dst: ckSlotB1, A: ckSlotA1, B: ckSlotB1, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCMul, Dst: ckSlotA1, A: ckSlotA1, B: ckSlotB0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: ckSlotT1, A: ckSlotT1, B: ckSlotA1, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCMul, Dst: ckSlotA0, A: ckSlotA0, B: ckSlotB0, Batch: hwsim.BatchQ}); err != nil {
		return nil, 0, err
	}
	// Phase 3: c0 (A0), c1 (T1), c2 (B1) back to coefficient order.
	for _, slot := range []uint8{ckSlotA0, ckSlotT1, ckSlotB1} {
		if err := s.execAll(cp,
			hwsim.Instr{Op: hwsim.OpINTT, A: slot, Batch: hwsim.BatchQ},
			hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: hwsim.BatchQ}); err != nil {
			return nil, 0, err
		}
	}
	// Phase 4+5: hybrid keyswitch of c2 onto the accumulators, ModDown.
	if err := s.keySwitch(cp, level, ckSlotB1, lk); err != nil {
		return nil, 0, err
	}
	// Phase 6: combine — c0 + md0, c1 + md1 (chain rows, coefficient
	// domain).
	if err := s.execAll(cp,
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: ckSlotAcc0, A: ckSlotA0, B: ckSlotMd0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: ckSlotAcc1, A: ckSlotT1, B: ckSlotMd1, Batch: hwsim.BatchQ}); err != nil {
		return nil, 0, err
	}
	// Phase 7: Rescale both elements by the level's top prime, landing one
	// level down in the freed operand slots.
	if err := s.execAll(cp,
		hwsim.Instr{Op: hwsim.OpRescale, Dst: ckSlotA1, A: ckSlotAcc0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpRescale, Dst: ckSlotB0, A: ckSlotAcc1, Batch: hwsim.BatchQ}); err != nil {
		return nil, 0, err
	}
	compute := s.Stats.Total - start
	if err := cp.Scrub(); err != nil {
		return nil, 0, err
	}
	out := s.receive(cp, level-1, ckSlotA1, ckSlotB0)
	out.Scale = a.Scale * b.Scale / float64(s.P.QMods[level].Q)
	return out, compute, nil
}

// Rotate executes a slot rotation: host-side automorphism readback (the
// sign-aware permutation streams through the rearrangement port, as in the
// BFV Rotate), then the hybrid keyswitch brings σ_g(s) back to s.
func (s *CKKSScheduler) Rotate(ct *ckks.Ciphertext, r int, gk *ckks.GaloisKey) (*ckks.Ciphertext, hwsim.Cycles, error) {
	if len(ct.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: ckks Rotate expects a degree-1 ciphertext")
	}
	if g := s.P.GaloisElementForRotation(r); g != gk.G {
		return nil, 0, fmt.Errorf("sched: rotation by %d needs Galois element %d, key holds %d", r, g, gk.G)
	}
	level := ct.Level()
	lk := gk.At(level)
	if lk == nil {
		return nil, 0, fmt.Errorf("sched: galois key has no level-%d bundle", level)
	}
	cp, err := s.coprocAt(level)
	if err != nil {
		return nil, 0, err
	}
	cp.ClearSlots()
	s.sendOperands(cp, level, ct.Els[0], ct.Els[1])
	start := s.Stats.Total

	// Automorphism of both elements: a host readback permutation. Scrub
	// first so a glitched operand DMA cannot flow silently through the
	// reload.
	if err := cp.Scrub(); err != nil {
		return nil, 0, err
	}
	if s.rd.Rows == nil {
		s.rd = poly.NewRNSPoly(s.P.QMods, s.P.N())
		s.perm = poly.NewRNSPoly(s.P.QMods, s.P.N())
	}
	rd := poly.RNSPoly{Rows: s.rd.Rows[:level+1]}
	perm := poly.RNSPoly{Rows: s.perm.Rows[:level+1]}
	for _, slot := range []uint8{ckSlotA0, ckSlotA1} {
		cp.ReadSlotInto(slot, 0, rd.Rows)
		rlwe.AutomorphInto(gk.G, rd, perm)
		cp.LoadSlotCoeff(slot, 0, perm.Rows)
		if _, err := cp.Exec(hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: hwsim.BatchQ}); err != nil {
			return nil, 0, err
		}
	}
	// Keyswitch σ_g(c1) → s, ModDown, combine: c0' = σ(c0) + md0,
	// c1' = md1.
	if err := s.keySwitch(cp, level, ckSlotA1, lk); err != nil {
		return nil, 0, err
	}
	if _, err := cp.Exec(hwsim.Instr{
		Op: hwsim.OpCAdd, Dst: ckSlotAcc0, A: ckSlotA0, B: ckSlotMd0, Batch: hwsim.BatchQ,
	}); err != nil {
		return nil, 0, err
	}
	compute := s.Stats.Total - start
	if err := cp.Scrub(); err != nil {
		return nil, 0, err
	}
	out := s.receive(cp, level, ckSlotAcc0, ckSlotMd1)
	out.Scale = ct.Scale
	return out, compute, nil
}

// keySwitch emits the hybrid (special-prime) keyswitch of the polynomial in
// srcSlot against the level key: per digit, WordDecomp extracts and extends
// the gadget digit, the digit transforms over chain and p* batches, the two
// key components stream in over DMA and multiply-accumulate into the
// extended accumulators; then both accumulators return to coefficient order
// and ModDown divides them by p* into ckSlotMd0/ckSlotMd1 (chain rows).
func (s *CKKSScheduler) keySwitch(cp *hwsim.Coprocessor, level int, srcSlot uint8, lk *ckks.LevelKey) error {
	for i := 0; i <= level; i++ {
		if err := s.execAll(cp,
			hwsim.Instr{Op: hwsim.OpDecomp, Dst: ckSlotDigit, A: srcSlot, B: uint8(i)},
			hwsim.Instr{Op: hwsim.OpNTT, A: ckSlotDigit, Batch: hwsim.BatchQ},
			hwsim.Instr{Op: hwsim.OpNTT, A: ckSlotDigit, Batch: hwsim.BatchP}); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			key := lk.Ks0Hat[i]
			acc := uint8(ckSlotAcc0)
			if k == 1 {
				key = lk.Ks1Hat[i]
				acc = ckSlotAcc1
			}
			// Stream the extended-row key component from DDR.
			cp.LoadSlotNTT(ckSlotKey, 0, key.Rows)
			cp.Transfer(hwsim.Transfer{Bytes: s.ksPolyBytes(level), Label: "ks key stream"})
			for _, batch := range []hwsim.Batch{hwsim.BatchQ, hwsim.BatchP} {
				if err := s.execAll(cp,
					hwsim.Instr{Op: hwsim.OpCMul, Dst: ckSlotSop, A: ckSlotDigit, B: ckSlotKey, Batch: batch},
					hwsim.Instr{Op: hwsim.OpCAdd, Dst: acc, A: acc, B: ckSlotSop, Batch: batch}); err != nil {
					return err
				}
			}
		}
	}
	for _, acc := range []uint8{ckSlotAcc0, ckSlotAcc1} {
		for _, batch := range []hwsim.Batch{hwsim.BatchQ, hwsim.BatchP} {
			if err := s.execAll(cp,
				hwsim.Instr{Op: hwsim.OpINTT, A: acc, Batch: batch},
				hwsim.Instr{Op: hwsim.OpRearr, A: acc, Batch: batch}); err != nil {
				return err
			}
		}
	}
	return s.execAll(cp,
		hwsim.Instr{Op: hwsim.OpRescale, Dst: ckSlotMd0, A: ckSlotAcc0, Batch: hwsim.BatchP},
		hwsim.Instr{Op: hwsim.OpRescale, Dst: ckSlotMd1, A: ckSlotAcc1, Batch: hwsim.BatchP})
}

func (s *CKKSScheduler) execAll(cp *hwsim.Coprocessor, ins ...hwsim.Instr) error {
	for _, in := range ins {
		if _, err := cp.Exec(in); err != nil {
			return err
		}
	}
	return nil
}

// receive reads a two-element result at the given level back off the
// co-processor, charging the result DMA.
func (s *CKKSScheduler) receive(cp *hwsim.Coprocessor, level int, el0, el1 uint8) *ckks.Ciphertext {
	k := level + 1
	out := &ckks.Ciphertext{Els: []poly.RNSPoly{
		{Rows: cp.ReadSlot(el0, 0, k)},
		{Rows: cp.ReadSlot(el1, 0, k)},
	}}
	cp.Transfer(hwsim.Transfer{Bytes: 2 * s.chainPolyBytes(level), Label: "receive ciphertext"})
	return out
}
