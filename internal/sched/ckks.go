package sched

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/hwsim"
	"repro/internal/poly"
)

// CKKSScheduler compiles CKKS operations into chain co-processor programs.
// One chain co-processor serves the whole modulus chain, as the BFV
// Scheduler's serves its bases: each operation points its level register at
// the operand's level — a level-ℓ ciphertext has ℓ+1 residue rows and its
// keys carry the p* extension — and every operation charges the one Stats
// ledger.
type CKKSScheduler struct {
	P *ckks.Params
	// Stats is the chain co-processor's ledger, C.Stats.
	Stats *hwsim.Stats
	machine
}

// NewCKKS returns a scheduler over params with the given timing calibration.
func NewCKKS(p *ckks.Params, timing hwsim.Timing) *CKKSScheduler {
	c := hwsim.NewCoprocessorChain(hwsim.Chain{Mods: p.KSMods, NTT: p.TrKS, Basis: p.BasisLevel[p.MaxLevel()],
		Rescale: p.Rescaler, ModDown: p.RescalerKS}, p.N(), p.Pool, timing, numCKKSSlots)
	return &CKKSScheduler{P: p, Stats: c.Stats, machine: newMachine(c, p.QMods, p.N())}
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

// Add executes CKKS addition into a new ciphertext (AddInto).
func (s *CKKSScheduler) Add(a, b *ckks.Ciphertext) (*ckks.Ciphertext, Report, error) {
	out := new(ckks.Ciphertext)
	rep, err := s.AddInto(out, a, b)
	return fresh(out, rep, err)
}

// AddInto executes CKKS addition at the operands' level: one
// coefficient-wise addition per element, the result read back into out as
// the BFV AddInto does. out's scale is set only on success.
func (s *CKKSScheduler) AddInto(out, a, b *ckks.Ciphertext) (Report, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return Report{}, fmt.Errorf("sched: ckks Add expects degree-1 ciphertexts")
	}
	if a.Level() != b.Level() {
		return Report{}, fmt.Errorf("sched: ckks Add level mismatch (%d vs %d)", a.Level(), b.Level())
	}
	scale, err := ckksScales(a.Scale, b.Scale)
	if err != nil {
		return Report{}, err
	}
	if err := s.C.SetLevel(a.Level()); err != nil {
		return Report{}, err
	}
	rep, err := s.add(&out.Els, a.Level()+1, a.Els, b.Els)
	if err != nil {
		return Report{}, err
	}
	out.Scale = scale
	return rep, nil
}

// MulRescale executes the CKKS multiply into a new ciphertext
// (MulRescaleInto).
func (s *CKKSScheduler) MulRescale(a, b *ckks.Ciphertext, rk *ckks.RelinKey) (*ckks.Ciphertext, Report, error) {
	out := new(ckks.Ciphertext)
	rep, err := s.MulRescaleInto(out, a, b, rk)
	return fresh(out, rep, err)
}

// MulRescaleInto executes the full CKKS multiply — tensor, relinearize
// through the hybrid keyswitch, and the trailing Rescale — reading the
// degree-1 result, one level down, back into out as AddInto does. The
// compute cycles include the key streaming, as in the BFV Mult accounting.
func (s *CKKSScheduler) MulRescaleInto(out, a, b *ckks.Ciphertext, rk *ckks.RelinKey) (Report, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return Report{}, fmt.Errorf("sched: ckks Mul expects degree-1 ciphertexts")
	}
	if a.Level() != b.Level() {
		return Report{}, fmt.Errorf("sched: ckks Mul level mismatch (%d vs %d)", a.Level(), b.Level())
	}
	level := a.Level()
	if level < 1 {
		return Report{}, fmt.Errorf("sched: ckks Mul at level 0 — no level left to rescale into")
	}
	// SetLevel refuses a level outside the chain before the key's At can.
	if err := s.C.SetLevel(level); err != nil {
		return Report{}, err
	}
	defer s.C.Unbind()
	k := level + 1
	rep, start := s.begin(out.Els, k, a.Els[0], a.Els[1], b.Els[0], b.Els[1])

	// Phases 1–3: the four operands to the NTT domain (chain rows only —
	// CKKS multiplies over the live chain, no basis lift), the tensor, and
	// c0 (A0), c1 (T1), c2 (B1) back to coefficient order. The cross term
	// and b0 die with the tensor.
	s.live.set(slotT1, k)
	if err := s.toNTT(batchQ, slotA0, slotA1, slotB0, slotB1); err != nil {
		return Report{}, err
	}
	if err := s.tensor(batchQ); err != nil {
		return Report{}, err
	}
	if err := s.fromNTT(batchQ, slotA0, slotT1, slotB1); err != nil {
		return Report{}, err
	}
	s.live.free(slotA1, slotB0)
	// Phase 4+5: hybrid keyswitch of c2 onto the accumulators, ModDown.
	if err := s.hybridKeySwitch(level, slotB1, rk.At(level)); err != nil {
		return Report{}, err
	}
	// Phase 6: combine — c0 + md0, c1 + md1 (chain rows, coefficient
	// domain). Phase 7: Rescale both elements by the level's top prime,
	// landing one level down in the freed operand slots.
	s.live.set(slotA1, k-1)
	s.live.set(slotB0, k-1)
	s.bind(&out.Els, slotA1, slotB0, k-1)
	if err := s.run(
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc0, A: slotA0, B: slotMd0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc1, A: slotT1, B: slotMd1, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpRescale, Dst: slotA1, A: slotAcc0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpRescale, Dst: slotB0, A: slotAcc1, Batch: hwsim.BatchQ}); err != nil {
		return Report{}, err
	}
	rep, err := s.finish(&out.Els, rep, start, slotA1, slotB0, k-1)
	if err != nil {
		return Report{}, err
	}
	out.Scale = a.Scale * b.Scale / float64(s.P.QMods[level].Q)
	return rep, nil
}

// Rotate executes a slot rotation into a new ciphertext (RotateInto).
func (s *CKKSScheduler) Rotate(ct *ckks.Ciphertext, r int, gk *ckks.GaloisKey) (*ckks.Ciphertext, Report, error) {
	out := new(ckks.Ciphertext)
	rep, err := s.RotateInto(out, ct, r, gk)
	return fresh(out, rep, err)
}

// RotateInto executes a slot rotation: the automorphism (the sign-aware
// permutation streams through the rearrangement port, as in the BFV
// Rotate), then the hybrid keyswitch brings σ_g(s) back to s. The result
// is read back into out as AddInto does.
func (s *CKKSScheduler) RotateInto(out, ct *ckks.Ciphertext, r int, gk *ckks.GaloisKey) (Report, error) {
	if len(ct.Els) != 2 {
		return Report{}, fmt.Errorf("sched: ckks Rotate expects a degree-1 ciphertext")
	}
	if g := s.P.GaloisElementForRotation(r); g != gk.G {
		return Report{}, fmt.Errorf("sched: rotation by %d needs Galois element %d, key holds %d", r, g, gk.G)
	}
	level := ct.Level()
	// SetLevel refuses a level outside the chain before the key's At can.
	if err := s.C.SetLevel(level); err != nil {
		return Report{}, err
	}
	defer s.C.Unbind()
	k := level + 1
	rep, start := s.begin(out.Els, k, ct.Els[0], ct.Els[1])
	s.bind(&out.Els, slotAcc0, slotMd1, k)
	if err := s.automorph(gk.G, ct.Els); err != nil {
		return Report{}, err
	}
	// Keyswitch σ_g(c1) → s, ModDown, combine: c0' = σ(c0) + md0,
	// c1' = md1.
	if err := s.hybridKeySwitch(level, slotA1, gk.At(level)); err != nil {
		return Report{}, err
	}
	if _, err := s.exec(hwsim.Instr{
		Op: hwsim.OpCAdd, Dst: slotAcc0, A: slotA0, B: slotMd0, Batch: hwsim.BatchQ,
	}); err != nil {
		return Report{}, err
	}
	rep, err := s.finish(&out.Els, rep, start, slotAcc0, slotMd1, k)
	if err != nil {
		return Report{}, err
	}
	out.Scale = ct.Scale
	return rep, nil
}

// hybridKeySwitch emits the hybrid (special-prime) keyswitch of the
// polynomial in src against a key's level view: the digit loop over the
// chain and p* batches (WordDecomp extracts and extends each gadget digit,
// the key components stream in as extended-row polynomials), both
// accumulators back to coefficient order, then ModDown divides them by p*
// into slotMd0/slotMd1 (chain rows).
func (s *CKKSScheduler) hybridKeySwitch(level int, src uint8, lk *ckks.LevelKey) error {
	keys := [2][]poly.RNSPoly{lk.Ks0Hat, lk.Ks1Hat}
	if err := s.keySwitch(digitLoop(src, keys, batchQP, "ks key stream", hwsim.PolyBytes(s.P.N(), level+2)), level+2); err != nil {
		return err
	}
	s.live.free(src)
	if err := s.fromNTT(batchQP, slotAcc0, slotAcc1); err != nil {
		return err
	}
	s.live.set(slotMd0, level+1)
	s.live.set(slotMd1, level+1)
	return s.run(
		hwsim.Instr{Op: hwsim.OpRescale, Dst: slotMd0, A: slotAcc0, Batch: hwsim.BatchP},
		hwsim.Instr{Op: hwsim.OpRescale, Dst: slotMd1, A: slotAcc1, Batch: hwsim.BatchP})
}
