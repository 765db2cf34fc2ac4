package sched

import (
	"fmt"

	"repro/internal/fv"
	"repro/internal/hwsim"
)

// Double-buffered BRAM slot streaming (paper Sec. I; ROADMAP "overlapped
// DMA/compute pipeline"). The serial Scheduler charges every operation's
// operand DMA, compute, and result DMA back to back. The PipelinedScheduler
// runs a stream of independent operations with the memory file extended by
// shadow operand banks: while operation i occupies the RPAUs, the DMA engine
// prefetches operation i+1's operands into the other bank. The prefetch is
// real, not just accounted — the operands are resident in disjoint slots
// before the previous compute finishes, and the results are proven
// bit-identical to the serial scheduler's (difftest-style, in
// pipelined_test.go) — while the timing is produced by the exact
// hwsim.SimulateStream model with its memory-file hazard rules.

// PipelinedMinSlots returns the memory-file size a pipelined schedule with
// the given number of operand banks needs: the serial working set plus
// 4 shadow operand slots per extra bank.
func PipelinedMinSlots(banks int) int {
	if banks < 1 {
		banks = 1
	}
	return numSlots + 4*(banks-1)
}

// PipelinedScheduler drives one co-processor like Scheduler, but executes
// operation streams with double-buffered operand banks.
type PipelinedScheduler struct {
	S *Scheduler
	// Banks is the operand bank count; 2 (the default) is classic double
	// buffering with one shadow bank.
	Banks int
}

// NewPipelined returns a pipelined scheduler over the co-processor. The
// memory file must have at least PipelinedMinSlots(2) slots.
func NewPipelined(p *fv.Params, c *hwsim.Coprocessor) *PipelinedScheduler {
	return &PipelinedScheduler{S: New(p, c), Banks: 2}
}

// StreamReport carries the stream's step profile and its exact schedule.
type StreamReport struct {
	Steps  []hwsim.StreamStep
	Timing hwsim.StreamTiming
}

// SerialCycles is the back-to-back cost — what the serial Scheduler charges
// for the same stream (operand DMA + compute + result DMA per op).
func (r StreamReport) SerialCycles() hwsim.Cycles { return r.Timing.Serial }

// PipelinedCycles is the double-buffered makespan.
func (r StreamReport) PipelinedCycles() hwsim.Cycles { return r.Timing.Pipelined }

// SavedCycles = SerialCycles − PipelinedCycles.
func (r StreamReport) SavedCycles() hwsim.Cycles { return r.Timing.Saved }

// bankBase returns the operand bank base slot for stream step i: bank 0 is
// the serial scheduler's slotA0..slotB1, the shadow banks follow the shared
// scratch slots.
func (ps *PipelinedScheduler) bankBase(i int) uint8 {
	b := i % ps.Banks
	if b == 0 {
		return slotA0
	}
	return uint8(numSlots + 4*(b-1))
}

// sharedScratch is every working slot a mulProgram touches outside its
// operand bank; the stream clears them between operations (the accumulators
// must start from zero rows, and stale domain tags would trip the domain
// checker) without disturbing the prefetched bank.
var sharedScratch = []uint8{slotT1, slotDigit, slotSop, slotKey, slotAcc0, slotAcc1}

// MulStream executes a stream of independent relinearized multiplications
// with the operand DMA of each operation prefetched into the shadow bank
// during the previous operation's compute. It returns the results (one per
// pair, bit-identical to Scheduler.Mul on the same inputs) and the exact
// stream schedule. The co-processor's serial accounting (Stats.Total)
// advances by the report's SerialCycles; PipelinedCycles is what the
// double-buffered hardware would take.
func (ps *PipelinedScheduler) MulStream(pairs [][2]*fv.Ciphertext, rk *fv.RelinKey) ([]*fv.Ciphertext, StreamReport, error) {
	s := ps.S
	if ps.Banks < 2 {
		ps.Banks = 2
	}
	for _, p := range pairs {
		if len(p[0].Els) != 2 || len(p[1].Els) != 2 {
			return nil, StreamReport{}, fmt.Errorf("sched: MulStream expects degree-1 ciphertexts")
		}
	}
	if err := s.checkVariant(rk); err != nil {
		return nil, StreamReport{}, err
	}
	n := len(pairs)
	if n == 0 {
		return nil, StreamReport{}, nil
	}

	s.reset()
	results := make([]*fv.Ciphertext, n)
	steps := make([]hwsim.StreamStep, n)
	polyB := s.polyBytes()

	// load stages pair i's operands into its bank. The bank is cleared
	// first: its previous user (operation i−Banks) is done, and a prefetch
	// must land in empty slots — stale extended-basis rows or integrity tags
	// from two operations ago would otherwise leak forward.
	load := func(i int) {
		base := ps.bankBase(i)
		for off := uint8(0); off < 4; off++ {
			s.C.ClearSlot(base + off)
		}
		s.sendAt(base, pairs[i][0], pairs[i][1])
		steps[i].LoadBytes = 4 * polyB
	}

	load(0)
	for i := range pairs {
		// Prefetch the next operands into the shadow bank BEFORE this
		// operation's compute: the banks are disjoint slot sets, so the DMA
		// landing early cannot perturb the running program — that disjoint
		// residency is exactly what the hardware's double buffer provides.
		if i+1 < n {
			load(i + 1)
		}
		if i > 0 {
			// Scrub the shared scratch of the previous operation. ClearSlot
			// keeps the flush-detection ledger, so an injected fault that
			// fired into scratch nothing re-read stays accounted.
			for _, sl := range sharedScratch {
				s.C.ClearSlot(sl)
			}
		}
		steps[i].Label = fmt.Sprintf("mul[%d]", i)
		start := s.C.Stats.Total
		if err := s.mulProgram(ps.bankBase(i), rk); err != nil {
			return nil, StreamReport{}, err
		}
		els, compute, err := s.finish(start, slotAcc0, slotAcc1, s.P.QBasis.K(), true)
		if err != nil {
			return nil, StreamReport{}, err
		}
		results[i] = &fv.Ciphertext{Els: els}
		steps[i].Compute = compute
		steps[i].StoreBytes = 2 * polyB
	}

	timing := s.C.DMAEng.SimulateStream(steps, ps.Banks)
	return results, StreamReport{Steps: steps, Timing: timing}, nil
}
