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
	"strings"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/rns"
)

// Memory-file slot assignments. Full-basis slots hold kq+kp residue rows
// while alive; q-basis slots hold kq.
const (
	slotA0    = iota // operand a0 (full after Lift) → t0 in place
	slotA1           // operand a1 (full) → a1·b0 cross term → s0 (q)
	slotB0           // operand b0 (full) → s1 (q)
	slotB1           // operand b1 (full) → t2 in place
	slotT1           // tensor accumulator t1 (full) → s2 (q)
	slotDigit        // current relinearization digit (q)
	slotSop          // SoP product scratch (q)
	slotKey          // streamed key component (q)
	slotAcc0         // SoP accumulator 0 (q), final c0
	slotAcc1         // SoP accumulator 1 (q), final c1
	numSlots
)

// MinSlots returns the memory-file size the schedules need. The slot-reuse
// discipline makes it independent of the relinearization digit count.
func MinSlots(int) int { return numSlots }

// liveness tracks how many residue rows each memory-file slot must retain,
// and the peak across the schedule — the quantity the BRAM budget of the
// resource model constrains.
type liveness struct {
	rows map[uint8]int
	cur  int
	peak int
}

func newLiveness() *liveness { return &liveness{rows: map[uint8]int{}} }

func (l *liveness) set(slot uint8, rows int) {
	l.cur += rows - l.rows[slot]
	l.rows[slot] = rows
	if l.cur > l.peak {
		l.peak = l.cur
	}
}

func (l *liveness) free(slot uint8) { l.set(slot, 0) }

func (l *liveness) reset() {
	clear(l.rows)
	l.cur, l.peak = 0, 0
}

// Scheduler drives one co-processor on behalf of one Arm application core.
// With Record set, every executed instruction and transfer is appended to
// Trace for the block-level overlap analysis (pipeline.go).
type Scheduler struct {
	P *fv.Params
	C *hwsim.Coprocessor

	Record bool
	Trace  []Task

	live *liveness

	// rd and perm are the host side of the Rotate readback (and of the
	// traditional variant's digit slicing): the slot's rows are copied out
	// into rd, permuted into perm and loaded back. Scratch the scheduler
	// keeps, allocated at the first operation that needs it.
	rd, perm poly.RNSPoly
}

// New returns a scheduler for the co-processor.
func New(p *fv.Params, c *hwsim.Coprocessor) *Scheduler {
	return &Scheduler{P: p, C: c, live: newLiveness()}
}

// ResiduePeak returns the residue-polynomial high-water mark of the last
// scheduled operation.
func (s *Scheduler) ResiduePeak() int { return s.live.peak }

func (s *Scheduler) exec(in hwsim.Instr) (hwsim.Cycles, error) {
	cyc, err := s.C.Exec(in)
	if err == nil && s.Record {
		reads, writes := instrAccess(in)
		s.Trace = append(s.Trace, Task{
			Label:  in.Disasm(),
			Unit:   unitForOp(in.Op),
			Cycles: cyc,
			Reads:  reads,
			Writes: writes,
		})
	}
	return cyc, err
}

// ProgramListing renders the recorded trace as an assembly-style listing
// with per-step cycle counts — the instruction stream the Arm core would
// enqueue for the operation.
func (s *Scheduler) ProgramListing() string {
	var b strings.Builder
	var total hwsim.Cycles
	for i, t := range s.Trace {
		fmt.Fprintf(&b, "%4d  %-34s ; %7d cycles  (%s)\n", i, t.Label, t.Cycles, t.Unit)
		total += t.Cycles
	}
	fmt.Fprintf(&b, "      total %d cycles = %.3f ms at 200 MHz\n", total, total.Seconds()*1e3)
	return b.String()
}

// transfer charges a DMA step, recording it against the written slots.
func (s *Scheduler) transfer(t hwsim.Transfer, writes, reads []uint8) hwsim.Cycles {
	cyc := s.C.Transfer(t)
	if s.Record {
		s.Trace = append(s.Trace, Task{
			Label:  "DMA " + t.Label,
			Unit:   UnitDMA,
			Cycles: cyc,
			Reads:  reads,
			Writes: writes,
		})
	}
	return cyc
}

// polyBytes is the DMA size of one R_q polynomial (Table III's 98,304-byte
// unit for the paper set).
func (s *Scheduler) polyBytes() int {
	return hwsim.PolyBytes(s.P.N(), s.P.QBasis.K())
}

// SendCiphertexts models the Arm→FPGA transfer of operand ciphertexts as a
// single contiguous DMA (the paper's memory layout keeps the coefficients
// contiguous exactly for this) and loads the polynomials into the memory
// file. It returns the transfer duration.
func (s *Scheduler) SendCiphertexts(a, b *fv.Ciphertext) hwsim.Cycles {
	return s.sendCiphertextsAt(slotA0, a, b)
}

// sendCiphertextsAt is SendCiphertexts with the operand bank parameterized:
// a lands at base, base+1 and b (when present) at base+2, base+3. The
// pipelined scheduler uses it to prefetch the next operation's operands into
// a shadow bank while the current one computes.
func (s *Scheduler) sendCiphertextsAt(base uint8, a, b *fv.Ciphertext) hwsim.Cycles {
	bytes := 0
	var written []uint8
	load := func(base uint8, ct *fv.Ciphertext) {
		for i, el := range ct.Els {
			s.C.LoadSlotCoeff(base+uint8(i), 0, el.Rows)
			s.live.set(base+uint8(i), s.P.QBasis.K())
			written = append(written, base+uint8(i))
			bytes += s.polyBytes()
		}
	}
	load(base, a)
	if b != nil {
		load(base+2, b)
	}
	return s.transfer(hwsim.Transfer{Bytes: bytes, Label: "send ciphertexts"}, written, nil)
}

// ReceiveCiphertext models the FPGA→Arm transfer of a two-element result and
// returns it as an fv.Ciphertext.
func (s *Scheduler) ReceiveCiphertext(el0, el1 uint8) (*fv.Ciphertext, hwsim.Cycles) {
	kq := s.P.QBasis.K()
	ct := &fv.Ciphertext{Els: []poly.RNSPoly{
		{Rows: s.C.ReadSlot(el0, 0, kq)},
		{Rows: s.C.ReadSlot(el1, 0, kq)},
	}}
	cyc := s.transfer(hwsim.Transfer{Bytes: 2 * s.polyBytes(), Label: "receive ciphertext"},
		nil, []uint8{el0, el1})
	return ct, cyc
}

func (s *Scheduler) reset() {
	s.C.ClearSlots()
	s.live.reset()
}

// readback copies the q rows of a slot into the scheduler's rd scratch.
func (s *Scheduler) readback(slot uint8) poly.RNSPoly {
	if s.rd.Rows == nil {
		s.rd = poly.NewRNSPoly(s.P.QMods, s.P.N())
		s.perm = poly.NewRNSPoly(s.P.QMods, s.P.N())
	}
	s.C.ReadSlotInto(slot, 0, s.rd.Rows)
	return s.rd
}

// Add executes FV.Add on the co-processor: one coefficient-wise addition per
// ciphertext element. It returns the result ciphertext and the compute
// cycles (excluding transfers, as in Table I's "Add in HW" row).
func (s *Scheduler) Add(a, b *fv.Ciphertext) (*fv.Ciphertext, hwsim.Cycles, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: Add expects degree-1 ciphertexts")
	}
	s.reset()
	s.SendCiphertexts(a, b)
	start := s.C.Stats.Total
	kq := s.P.QBasis.K()
	for i := 0; i < 2; i++ {
		s.live.set(slotAcc0+uint8(i), kq)
		if _, err := s.exec(hwsim.Instr{
			Op: hwsim.OpCAdd, Dst: slotAcc0 + uint8(i),
			A: slotA0 + uint8(i), B: slotB0 + uint8(i), Batch: hwsim.BatchQ,
		}); err != nil {
			return nil, 0, err
		}
	}
	compute := s.C.Stats.Total - start
	if err := s.C.Scrub(); err != nil {
		return nil, 0, err
	}
	ct, _ := s.ReceiveCiphertext(slotAcc0, slotAcc1)
	return ct, compute, nil
}

// Mul executes the full FV.Mult pipeline of the paper's Fig. 2 on the
// co-processor and returns the relinearized ciphertext along with the
// compute duration (which includes the relinearization-key streaming, as in
// Table I's "Mult in HW" row, but not the operand/result transfers).
func (s *Scheduler) Mul(a, b *fv.Ciphertext, rk *fv.RelinKey) (*fv.Ciphertext, hwsim.Cycles, error) {
	if len(a.Els) != 2 || len(b.Els) != 2 {
		return nil, 0, fmt.Errorf("sched: Mul expects degree-1 ciphertexts")
	}
	if rk.Variant == fv.HPS && s.C.Variant != hwsim.VariantHPS ||
		rk.Variant == fv.Traditional && s.C.Variant != hwsim.VariantTraditional {
		return nil, 0, fmt.Errorf("sched: relin key variant %v does not match co-processor variant %v",
			rk.Variant, s.C.Variant)
	}
	s.reset()
	s.SendCiphertexts(a, b)
	start := s.C.Stats.Total
	if err := s.mulProgram(slotA0, rk); err != nil {
		return nil, 0, err
	}
	compute := s.C.Stats.Total - start
	if err := s.C.Scrub(); err != nil {
		return nil, 0, err
	}
	kq := s.P.QBasis.K()
	ct := &fv.Ciphertext{Els: []poly.RNSPoly{
		{Rows: s.C.ReadSlot(slotAcc0, 0, kq)},
		{Rows: s.C.ReadSlot(slotAcc1, 0, kq)},
	}}
	return ct, compute, nil
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
	operands := []uint8{opA0, opA1, opB0, opB1}

	ops := []hwsim.Instr{}
	// Phase 1: Lift q→Q of the four operand polynomials (4 Lift calls).
	for _, slot := range operands {
		ops = append(ops, hwsim.Instr{Op: hwsim.OpLift, A: slot})
	}
	// Phase 2: rearrange to the paired NTT layout and transform, in two
	// batches per polynomial (8 Rearr + 8 NTT).
	for _, slot := range operands {
		for _, batch := range []hwsim.Batch{hwsim.BatchQ, hwsim.BatchP} {
			ops = append(ops,
				hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: batch},
				hwsim.Instr{Op: hwsim.OpNTT, A: slot, Batch: batch})
		}
	}
	// Phase 3: tensor product over the extended basis (8 CMul + 2 CAdd),
	// overwriting operands as they die so only one extra full-basis slot
	// (slotT1) is ever needed:
	//   T1 = a0·b1;  B1 = a1·b1 (t2);  A1 = a1·b0;  T1 += A1 (t1);
	//   A0 = a0·b0 (t0).
	for _, batch := range []hwsim.Batch{hwsim.BatchQ, hwsim.BatchP} {
		ops = append(ops,
			hwsim.Instr{Op: hwsim.OpCMul, Dst: slotT1, A: opA0, B: opB1, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCMul, Dst: opB1, A: opA1, B: opB1, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCMul, Dst: opA1, A: opA1, B: opB0, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotT1, A: slotT1, B: opA1, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCMul, Dst: opA0, A: opA0, B: opB0, Batch: batch})
	}
	// Phase 4: inverse transforms and layout restore of t0 (opA0),
	// t1 (slotT1), t2 (opB1): 6 INTT + 6 Rearr.
	for _, slot := range []uint8{opA0, slotT1, opB1} {
		for _, batch := range []hwsim.Batch{hwsim.BatchQ, hwsim.BatchP} {
			ops = append(ops,
				hwsim.Instr{Op: hwsim.OpINTT, A: slot, Batch: batch},
				hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: batch})
		}
	}

	// Liveness through phases 1–4: the four lifted operands plus the tensor
	// accumulator are simultaneously full-basis — the 5-polynomial peak.
	for _, slot := range operands {
		s.live.set(slot, full)
	}
	s.live.set(slotT1, full)

	for _, in := range ops {
		if _, err := s.exec(in); err != nil {
			return err
		}
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

	// Phase 6: relinearization, one digit at a time: extract (WordDecomp),
	// transform, stream the two key components, multiply-accumulate. The
	// digit, key, and product scratch slots are recycled every iteration —
	// the memory file never holds more than one digit.
	ell := len(rk.Rlk0Hat)
	var tradDigits []poly.RNSPoly
	if rk.Variant == fv.Traditional {
		// The traditional architecture's Scale produces the positional form
		// the signed-digit WordDecomp slices; the host prepares the digits.
		// The host read is a readback: scrub first so corrupted rows cannot
		// silently seed the digit slicing.
		if err := s.C.Scrub(); err != nil {
			return err
		}
		tradDigits = rns.WordDecompose(s.P.QBasis, s.readback(sSlot2), rk.LogW, rk.Ell)
	}
	for _, sl := range []uint8{slotDigit, slotSop, slotKey, slotAcc0, slotAcc1} {
		s.live.set(sl, kq)
	}
	for i := 0; i < ell; i++ {
		if err := s.prepareDigit(rk, tradDigits, sSlot2, i); err != nil {
			return err
		}
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpNTT, A: slotDigit, Batch: hwsim.BatchQ}); err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			key := rk.Rlk0Hat[i]
			acc := uint8(slotAcc0)
			if k == 1 {
				key = rk.Rlk1Hat[i]
				acc = slotAcc1
			}
			// Stream the key component from DDR (Table I: "Only during the
			// relinearization steps, data transfer is needed to load the
			// large relinearization keys").
			s.C.LoadSlotNTT(slotKey, 0, key.Rows)
			s.transfer(hwsim.Transfer{Bytes: s.polyBytes(), Label: "rlk stream"}, []uint8{slotKey}, nil)
			if _, err := s.exec(hwsim.Instr{Op: hwsim.OpCMul, Dst: slotSop, A: slotDigit, B: slotKey, Batch: hwsim.BatchQ}); err != nil {
				return err
			}
			if _, err := s.exec(hwsim.Instr{Op: hwsim.OpCAdd, Dst: acc, A: acc, B: slotSop, Batch: hwsim.BatchQ}); err != nil {
				return err
			}
		}
	}
	// Inverse-transform the sums of products and add the scaled c̃0, c̃1
	// (2 INTT + 2 Rearr + 2 CAdd).
	for _, acc := range []uint8{slotAcc0, slotAcc1} {
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpINTT, A: acc, Batch: hwsim.BatchQ}); err != nil {
			return err
		}
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpRearr, A: acc, Batch: hwsim.BatchQ}); err != nil {
			return err
		}
	}
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc0, A: sSlot0, B: slotAcc0, Batch: hwsim.BatchQ}); err != nil {
		return err
	}
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc1, A: sSlot1, B: slotAcc1, Batch: hwsim.BatchQ}); err != nil {
		return err
	}
	return nil
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
	s.reset()
	s.SendCiphertexts(ct, nil)
	start := s.C.Stats.Total

	kq := s.P.QBasis.K()
	// Automorphism of both elements: permute through the rearrangement
	// port (one pass per element). The permutation is a host readback of the
	// just-loaded operands; scrub so a glitched operand DMA cannot flow
	// silently through the reload.
	if err := s.C.Scrub(); err != nil {
		return nil, 0, err
	}
	for _, slot := range []uint8{slotA0, slotA1} {
		rlwe.AutomorphInto(gk.G, s.readback(slot), s.perm)
		s.C.LoadSlotCoeff(slot, 0, s.perm.Rows)
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: hwsim.BatchQ}); err != nil {
			return nil, 0, err
		}
	}

	// Key switch σ_g(c1) → s: digits, transforms, streamed key SoP, one
	// digit at a time as in Mul's relinearization phase.
	for _, sl := range []uint8{slotDigit, slotSop, slotKey, slotAcc0, slotAcc1} {
		s.live.set(sl, kq)
	}
	ell := len(gk.Ks0Hat)
	for i := 0; i < ell; i++ {
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpDecomp, Dst: slotDigit, A: slotA1, B: uint8(i)}); err != nil {
			return nil, 0, err
		}
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpNTT, A: slotDigit, Batch: hwsim.BatchQ}); err != nil {
			return nil, 0, err
		}
		for k := 0; k < 2; k++ {
			key := gk.Ks0Hat[i]
			acc := uint8(slotAcc0)
			if k == 1 {
				key = gk.Ks1Hat[i]
				acc = slotAcc1
			}
			s.C.LoadSlotNTT(slotKey, 0, key.Rows)
			s.transfer(hwsim.Transfer{Bytes: s.polyBytes(), Label: "galois key stream"}, []uint8{slotKey}, nil)
			if _, err := s.exec(hwsim.Instr{Op: hwsim.OpCMul, Dst: slotSop, A: slotDigit, B: slotKey, Batch: hwsim.BatchQ}); err != nil {
				return nil, 0, err
			}
			if _, err := s.exec(hwsim.Instr{Op: hwsim.OpCAdd, Dst: acc, A: acc, B: slotSop, Batch: hwsim.BatchQ}); err != nil {
				return nil, 0, err
			}
		}
	}
	for _, acc := range []uint8{slotAcc0, slotAcc1} {
		if _, err := s.exec(hwsim.Instr{Op: hwsim.OpINTT, A: acc, Batch: hwsim.BatchQ}); err != nil {
			return nil, 0, err
		}
	}
	// c0' = σ(c0) + sop0; c1' = sop1.
	if _, err := s.exec(hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotAcc0, A: slotA0, B: slotAcc0, Batch: hwsim.BatchQ}); err != nil {
		return nil, 0, err
	}

	compute := s.C.Stats.Total - start
	if err := s.C.Scrub(); err != nil {
		return nil, 0, err
	}
	out := &fv.Ciphertext{Els: []poly.RNSPoly{
		{Rows: s.C.ReadSlot(slotAcc0, 0, kq)},
		{Rows: s.C.ReadSlot(slotAcc1, 0, kq)},
	}}
	return out, compute, nil
}

// prepareDigit loads relinearization digit i into slotDigit. The HPS
// variant extracts the RNS gadget digit with the co-processor's WordDecomp
// instruction; the traditional variant loads the host-sliced positional
// digit and charges the same per-digit rearrangement pass.
func (s *Scheduler) prepareDigit(rk *fv.RelinKey, tradDigits []poly.RNSPoly, srcSlot uint8, i int) error {
	switch rk.Variant {
	case fv.HPS:
		_, err := s.exec(hwsim.Instr{Op: hwsim.OpDecomp, Dst: slotDigit, A: srcSlot, B: uint8(i)})
		return err
	case fv.Traditional:
		s.C.LoadSlotCoeff(slotDigit, 0, tradDigits[i].Rows)
		_, err := s.exec(hwsim.Instr{Op: hwsim.OpRearr, A: slotDigit, Batch: hwsim.BatchQ})
		return err
	}
	return fmt.Errorf("sched: unknown relin key variant")
}
