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
)

// Report is the timing of one operation, read off the co-processor ledger:
// the operand DMA, the instruction sequence between it and the result DMA,
// and the result DMA. Send + Compute + Receive is exactly what the operation
// charged the ledger.
type Report struct {
	// ComputeCycles is the FPGA-cycle duration of the instruction sequence,
	// including intermediate DMA (relinearization-key streaming) — the view
	// of Table I's "Mult in HW"/"Add in HW" rows.
	ComputeCycles hwsim.Cycles
	// SendCycles/ReceiveCycles are the operand and result transfers
	// (Table I rows 4–5).
	SendCycles    hwsim.Cycles
	ReceiveCycles hwsim.Cycles
	// KeyLoadCycles is the evaluation-key DMA stream charged to this
	// operation by a serving layer (internal/engine): zero when the key was
	// already resident on the co-processor, the full stream otherwise. The
	// paper overlaps this stream with compute; accounting it separately
	// keeps ComputeCycles comparable to Table I.
	KeyLoadCycles hwsim.Cycles
}

// ComputeSeconds returns the compute latency in seconds.
func (r Report) ComputeSeconds() float64 { return r.ComputeCycles.Seconds() }

// TotalSeconds returns compute plus transfer latency (operands, result, and
// any evaluation-key stream charged by the serving layer).
func (r Report) TotalSeconds() float64 {
	return (r.ComputeCycles + r.SendCycles + r.ReceiveCycles + r.KeyLoadCycles).Seconds()
}

// ArmCycles returns the compute latency in the Arm cycle-counter units the
// paper's tables use.
func (r Report) ArmCycles() uint64 { return r.ComputeCycles.ArmCycles() }

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

// newCoprocessor builds the co-processor for p under timing, its memory
// file sized for these schedules.
func newCoprocessor(p *fv.Params, timing hwsim.Timing) (*hwsim.Coprocessor, error) {
	return hwsim.New(p.QMods, p.PMods, p.N(), p.Lifter, p.Scaler, timing, MinSlots())
}

// NewDefault returns a scheduler over a fresh co-processor under the
// default calibration.
func NewDefault(p *fv.Params) (*Scheduler, error) {
	c, err := newCoprocessor(p, hwsim.DefaultTiming())
	if err != nil {
		return nil, err
	}
	return New(p, c), nil
}

// polyBytes is the DMA size of one R_q polynomial (Table III's 98,304-byte
// unit for the paper set).
func (s *Scheduler) polyBytes() int {
	return hwsim.PolyBytes(s.P.N(), s.P.QBasis.K())
}

// Add executes FV.Add on the co-processor: one coefficient-wise addition per
// ciphertext element. It returns the result ciphertext and its report
// (compute excludes the transfers, as in Table I's "Add in HW" row).
func (s *Scheduler) Add(a, b *fv.Ciphertext) (*fv.Ciphertext, Report, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, Report{}, fmt.Errorf("sched: Add expects degree-1 ciphertexts")
	}
	els, rep, err := s.add(s.P.QBasis.K(), a.Els, b.Els)
	if err != nil {
		return nil, Report{}, err
	}
	return &fv.Ciphertext{Els: els}, rep, nil
}

// Mul executes the full FV.Mult pipeline of the paper's Fig. 2 on the
// co-processor and returns the relinearized ciphertext along with its report
// (compute includes the relinearization-key streaming, as in Table I's
// "Mult in HW" row, but not the operand/result transfers).
func (s *Scheduler) Mul(a, b *fv.Ciphertext, rk *fv.RelinKey) (*fv.Ciphertext, Report, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, Report{}, fmt.Errorf("sched: Mul expects degree-1 ciphertexts")
	}
	kq := s.P.QBasis.K()
	rep, start := s.begin(kq, a.Els[0], a.Els[1], b.Els[0], b.Els[1])
	if err := s.mulProgram(rk); err != nil {
		return nil, Report{}, err
	}
	els, rep, err := s.finish(rep, start, slotAcc0, slotAcc1, kq)
	if err != nil {
		return nil, Report{}, err
	}
	return &fv.Ciphertext{Els: els}, rep, nil
}

// mulProgram emits the Fig. 2 multiplication pipeline over the four operand
// polynomials in slotA0..slotB1 (a0, a1, b0, b1), with the tensor accumulator
// and the relinearization scratch in slotT1, slotDigit, slotSop, slotKey,
// slotAcc0 and slotAcc1. The result is left in slotAcc0/slotAcc1.
func (s *Scheduler) mulProgram(rk *fv.RelinKey) error {
	kq := s.P.QBasis.K()
	full := kq + s.P.PBasis.K()

	// Liveness through phases 1–4: the four lifted operands plus the tensor
	// accumulator are simultaneously full-basis — the 5-polynomial peak.
	for _, slot := range []uint8{slotA0, slotA1, slotB0, slotB1, slotT1} {
		s.live.set(slot, full)
	}
	// Phase 1: Lift q→Q of the four operand polynomials (4 Lift calls).
	for slot := uint8(slotA0); slot <= slotB1; slot++ {
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpLift, A: slot}); err != nil {
			return err
		}
	}
	// Phase 2: to the NTT domain in two batches per polynomial (8 Rearr +
	// 8 NTT). Phase 3: tensor product over the extended basis (8 CMul +
	// 2 CAdd). Phase 4: t0 (slotA0), t1 (slotT1), t2 (slotB1) back to
	// coefficients (6 INTT + 6 Rearr).
	if err := s.toNTT(batchQP, slotA0, slotA1, slotB0, slotB1); err != nil {
		return err
	}
	if err := s.tensor(batchQP); err != nil {
		return err
	}
	if err := s.fromNTT(batchQP, slotA0, slotT1, slotB1); err != nil {
		return err
	}

	// Phase 5: Scale Q→q of the three tensor outputs (3 Scale calls), each
	// result landing in a slot whose previous contents just died:
	// s0 ← A1 (cross term dead), s1 ← B0 (operand dead), s2 ← T1 (t1 dead
	// once its own Scale has consumed it).
	s.live.set(slotA1, kq)
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpScale, Dst: slotA1, A: slotA0}); err != nil {
		return err
	}
	s.live.free(slotA0)
	s.live.set(slotB0, kq)
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpScale, Dst: slotB0, A: slotT1}); err != nil {
		return err
	}
	s.live.set(slotT1, kq)
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpScale, Dst: slotT1, A: slotB1}); err != nil {
		return err
	}
	s.live.free(slotB1)
	const sSlot0, sSlot1, sSlot2 = slotA1, slotB0, slotT1

	// Phase 6: relinearization of s2 through the key-switch digit loop.
	if err := s.keySwitch(keySwitch{
		src:     sSlot2,
		keys:    [2][]poly.RNSPoly{rk.Rlk0Hat, rk.Rlk1Hat},
		batches: batchQ,
		rows:    kq,
		label:   "rlk stream",
		bytes:   s.polyBytes(),
	}); err != nil {
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

// The Fig. 2 program's Lift and Scale count (mulProgram): one Lift per
// operand polynomial, one Scale per tensor output.
const mulLifts, mulScales = 4, 3

// tradLiftScaleCores is the traditional architecture's Lift/Scale core
// count: "To speedup computation, we keep four parallel cores" (Sec. VI-C).
const tradLiftScaleCores = 4

// tradRelinDigits is the digit count of the traditional architecture's
// positional relinearization key: base-2^90 digits of q, at least two —
// ℓ = 2 for the paper's 180-bit q, the "three times smaller relinearization
// key" of Sec. VI-C.
func (s *Scheduler) tradRelinDigits() int {
	return max(2, (s.P.LogQ()+89)/90)
}

// TraditionalMul prices the Mult of the paper's traditional multi-precision
// CRT architecture (Sec. VI-C) from hps, the Report of the same Mult on this
// HPS co-processor. The traditional design runs the same Fig. 2 program, so
// it is priced, not run: each of the Mult's 4 Lift and 3 Scale costs
// TraditionalCycles on four cores instead of the HPS entry, and the
// relinearization loops over tradRelinDigits positional digits instead of
// one RNS digit per q prime (the host-sliced positional digit's REARR costs
// the same pass as WDEC, so a digit costs digitCycles either way). The operand and result transfers are unchanged. The exact CRT
// dataflow itself is the rns oracle (ExtendExact, ScaleExact).
func (s *Scheduler) TraditionalMul(hps Report) Report {
	c := s.C
	reprice := func(op hwsim.Op) hwsim.Cycles {
		return c.TraditionalCycles(op, tradLiftScaleCores) + c.Dispatch() - c.Cycles(hwsim.Instr{Op: op})
	}
	fewer := hwsim.Cycles(s.P.QBasis.K() - s.tradRelinDigits())
	hps.ComputeCycles += mulLifts*reprice(hwsim.OpLift) + mulScales*reprice(hwsim.OpScale) -
		fewer*s.digitCycles(batchQ, s.polyBytes())
	return hps
}

// Rotate executes a Galois automorphism with key switch on the
// co-processor. The automorphism itself is a (sign-aware) memory
// permutation, streamed through the rearrangement port; the key switch is
// exactly the relinearization datapath with the Galois key's components, so
// the instruction mix is ℓ WordDecomp + ℓ NTT + 2ℓ CMUL/CADD + 2 INTT.
func (s *Scheduler) Rotate(ct *fv.Ciphertext, gk *fv.GaloisKey) (*fv.Ciphertext, Report, error) {
	if len(ct.Els) != 2 {
		return nil, Report{}, fmt.Errorf("sched: Rotate expects a degree-1 ciphertext")
	}
	kq := s.P.QBasis.K()
	rep, start := s.begin(kq, ct.Els[0], ct.Els[1])
	if err := s.automorph(gk.G, kq); err != nil {
		return nil, Report{}, err
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
		return nil, Report{}, err
	}
	if err := s.run(
		hwsim.Instr{Op: hwsim.OpINTT, A: slotAcc0, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpINTT, A: slotAcc1, Batch: hwsim.BatchQ},
		hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc0, A: slotA0, B: slotAcc0, Batch: hwsim.BatchQ}); err != nil {
		return nil, Report{}, err
	}
	els, rep, err := s.finish(rep, start, slotAcc0, slotAcc1, kq)
	if err != nil {
		return nil, Report{}, err
	}
	return &fv.Ciphertext{Els: els}, rep, nil
}
