// Package sched compiles the high-level FV operations into instruction
// sequences for the simulated co-processor, mirroring the task scheduling of
// the paper's Arm-side software: operand placement in the memory file,
// batching over the RPAUs (R_q work in one batch, R_Q work in two), the
// Fig. 2 multiplication pipeline, and the streaming of relinearization keys
// over DMA (the ≈30% intermediate-transfer overhead of Table I).
//
// The memory file is small — the paper provisions 66 residue-polynomial
// buffers (4 BRAM36K each; Table IV's BRAM budget) — so the schedule reuses
// slots aggressively: tensor outputs overwrite dead operands, scaled results
// land in the freed cross-term slots, and relinearization digits are
// extracted, transformed and consumed one at a time while their key
// components stream in. A built-in liveness auditor tracks the residue-row
// high-water mark; TestMulMemoryHighWater pins it at 5 full-basis
// polynomials (65 residues for the paper set), within the hardware budget.
package sched

import (
	"fmt"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/poly"
	"repro/internal/rns"
)

// Scheduler drives one co-processor on behalf of one Arm application core.
// Everything below the FV.Mult and rotation programs themselves — tracing
// (Record/Trace), the liveness auditor and the sub-sequences shared with the
// CKKS scheduler — is the embedded machine.
type Scheduler struct {
	P *fv.Params
	machine
}

// New returns a scheduler for the co-processor.
func New(p *fv.Params, c *hwsim.Coprocessor) *Scheduler {
	return &Scheduler{P: p, machine: newMachine(c, p.QMods, p.N())}
}

// polyBytes is the DMA size of one R_q polynomial (Table III's 98,304-byte
// unit for the paper set).
func (s *Scheduler) polyBytes() int {
	return hwsim.PolyBytes(s.P.N(), s.P.QBasis.K())
}

// sendAt loads degree-1 operand ciphertexts into the operand bank at base: a
// lands at base, base+1 and b (when present) at base+2, base+3. The serial
// programs use slotA0; the pipelined scheduler prefetches the next
// operation's operands into a shadow bank while the current one computes.
func (s *Scheduler) sendAt(base uint8, a, b *fv.Ciphertext) hwsim.Cycles {
	kq := s.P.QBasis.K()
	if b == nil {
		return s.send(base, kq, a.Els[0], a.Els[1])
	}
	return s.send(base, kq, a.Els[0], a.Els[1], b.Els[0], b.Els[1])
}

// checkVariant refuses a relinearization key built for the other lift/scale
// architecture.
func (s *Scheduler) checkVariant(rk *fv.RelinKey) error {
	if rk.Variant == fv.HPS && s.C.Variant != hwsim.VariantHPS ||
		rk.Variant == fv.Traditional && s.C.Variant != hwsim.VariantTraditional {
		return fmt.Errorf("sched: relin key variant %v does not match co-processor variant %v",
			rk.Variant, s.C.Variant)
	}
	return nil
}

// Add executes FV.Add on the co-processor: one coefficient-wise addition per
// ciphertext element. It returns the result ciphertext and the compute
// cycles (excluding transfers, as in Table I's "Add in HW" row).
func (s *Scheduler) Add(a, b *fv.Ciphertext) (*fv.Ciphertext, hwsim.Cycles, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: Add expects degree-1 ciphertexts")
	}
	els, compute, err := s.add(s.P.QBasis.K(), a.Els, b.Els)
	if err != nil {
		return nil, 0, err
	}
	return &fv.Ciphertext{Els: els}, compute, nil
}

// Mul executes the full FV.Mult pipeline of the paper's Fig. 2 on the
// co-processor and returns the relinearized ciphertext along with the
// compute duration (which includes the relinearization-key streaming, as in
// Table I's "Mult in HW" row, but not the operand/result transfers).
func (s *Scheduler) Mul(a, b *fv.Ciphertext, rk *fv.RelinKey) (*fv.Ciphertext, hwsim.Cycles, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: Mul expects degree-1 ciphertexts")
	}
	if err := s.checkVariant(rk); err != nil {
		return nil, 0, err
	}
	kq := s.P.QBasis.K()
	start := s.begin(kq, a.Els[0], a.Els[1], b.Els[0], b.Els[1])
	if err := s.mulProgram(slotA0, rk); err != nil {
		return nil, 0, err
	}
	els, compute, err := s.finish(start, slotAcc0, slotAcc1, kq, false)
	if err != nil {
		return nil, 0, err
	}
	return &fv.Ciphertext{Els: els}, compute, nil
}

// mulProgram emits the Fig. 2 multiplication pipeline with the operand bank
// parameterized: the four operand polynomials sit at base..base+3 (a0, a1,
// b0, b1), while the tensor accumulator and the relinearization scratch
// slots (slotT1, slotDigit, slotSop, slotKey, slotAcc0, slotAcc1) stay
// fixed. The serial Mul runs it with base = slotA0; the pipelined scheduler
// alternates shadow banks so the next operation's operand DMA can land
// while this program occupies the RPAUs. The result is left in
// slotAcc0/slotAcc1, bit-identical regardless of bank.
func (s *Scheduler) mulProgram(base uint8, rk *fv.RelinKey) error {
	opA0, opA1, opB0, opB1 := base, base+1, base+2, base+3
	kq := s.P.QBasis.K()
	full := kq + s.P.PBasis.K()

	// Liveness through phases 1–4: the four lifted operands plus the tensor
	// accumulator are simultaneously full-basis — the 5-polynomial peak.
	for _, slot := range []uint8{opA0, opA1, opB0, opB1, slotT1} {
		s.live.set(slot, full)
	}
	// Phase 1: Lift q→Q of the four operand polynomials (4 Lift calls).
	for slot := opA0; slot <= opB1; slot++ {
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpLift, A: slot}); err != nil {
			return err
		}
	}
	// Phase 2: to the NTT domain in two batches per polynomial (8 Rearr +
	// 8 NTT). Phase 3: tensor product over the extended basis (8 CMul +
	// 2 CAdd). Phase 4: t0 (opA0), t1 (slotT1), t2 (opB1) back to
	// coefficients (6 INTT + 6 Rearr).
	if err := s.toNTT(batchQP, opA0, opA1, opB0, opB1); err != nil {
		return err
	}
	if err := s.tensor(base, batchQP); err != nil {
		return err
	}
	if err := s.fromNTT(batchQP, opA0, slotT1, opB1); err != nil {
		return err
	}

	// Phase 5: Scale Q→q of the three tensor outputs (3 Scale calls), each
	// result landing in a slot whose previous contents just died:
	// s0 ← A1 (cross term dead), s1 ← B0 (operand dead), s2 ← T1 (t1 dead
	// once its own Scale has consumed it).
	s.live.set(opA1, kq)
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpScale, Dst: opA1, A: opA0}); err != nil {
		return err
	}
	s.live.free(opA0)
	s.live.set(opB0, kq)
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpScale, Dst: opB0, A: slotT1}); err != nil {
		return err
	}
	s.live.set(slotT1, kq)
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpScale, Dst: slotT1, A: opB1}); err != nil {
		return err
	}
	s.live.free(opB1)
	sSlot0, sSlot1 := opA1, opB0
	const sSlot2 = slotT1

	// Phase 6: relinearization of s2 through the key-switch digit loop.
	ks := keySwitch{
		src:     sSlot2,
		keys:    [2][]poly.RNSPoly{rk.Rlk0Hat, rk.Rlk1Hat},
		batches: batchQ,
		rows:    kq,
		label:   "rlk stream",
		bytes:   s.polyBytes(),
	}
	if rk.Variant == fv.Traditional {
		// The traditional architecture's Scale produces the positional form
		// the signed-digit WordDecomp slices; the host prepares the digits.
		// The host read is a readback: scrub first so corrupted rows cannot
		// silently seed the digit slicing.
		if err := s.C.Scrub(); err != nil {
			return err
		}
		ks.host = rns.WordDecompose(s.P.QBasis, s.readback(sSlot2, kq), rk.LogW, rk.Ell)
	}
	if err := s.keySwitch(ks); err != nil {
		return err
	}
	// Inverse-transform the sums of products and add the scaled c̃0, c̃1
	// (2 INTT + 2 Rearr + 2 CAdd).
	if err := s.fromNTT(batchQ, slotAcc0, slotAcc1); err != nil {
		return err
	}
	return s.run(
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc0, A: sSlot0, B: slotAcc0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc1, A: sSlot1, B: slotAcc1, Batch: hwsim.BatchQ})
}

// Rotate executes a Galois automorphism with key switch on the
// co-processor. The automorphism itself is a (sign-aware) memory
// permutation, streamed through the rearrangement port; the key switch is
// exactly the relinearization datapath with the Galois key's components, so
// the instruction mix is ℓ WordDecomp + ℓ NTT + 2ℓ CMUL/CADD + 2 INTT.
func (s *Scheduler) Rotate(ct *fv.Ciphertext, gk *fv.GaloisKey) (*fv.Ciphertext, hwsim.Cycles, error) {
	if len(ct.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: Rotate expects a degree-1 ciphertext")
	}
	if s.C.Variant != hwsim.VariantHPS {
		return nil, 0, fmt.Errorf("sched: Galois keys use the RNS gadget; need the HPS co-processor")
	}
	kq := s.P.QBasis.K()
	start := s.begin(kq, ct.Els[0], ct.Els[1])
	if err := s.automorph(gk.G, kq); err != nil {
		return nil, 0, err
	}
	// Key switch σ_g(c1) → s, then c0' = σ(c0) + sop0; c1' = sop1.
	if err := s.keySwitch(keySwitch{
		src:     slotA1,
		keys:    [2][]poly.RNSPoly{gk.Ks0Hat, gk.Ks1Hat},
		batches: batchQ,
		rows:    kq,
		label:   "galois key stream",
		bytes:   s.polyBytes(),
	}); err != nil {
		return nil, 0, err
	}
	if err := s.run(
		hwsim.Instr{Op: hwsim.OpINTT, A: slotAcc0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpINTT, A: slotAcc1, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc0, A: slotA0, B: slotAcc0, Batch: hwsim.BatchQ}); err != nil {
		return nil, 0, err
	}
	els, compute, err := s.finish(start, slotAcc0, slotAcc1, kq, false)
	if err != nil {
		return nil, 0, err
	}
	return &fv.Ciphertext{Els: els}, compute, nil
}
