package sched

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rlwe"
)

// Memory-file slot assignments, one map for both schemes. A slot holds as
// many residue rows as its current occupant needs: BFV operands grow from kq
// to kq+kp rows at the Lift and shrink back at the Scale; CKKS polynomials
// hold the level's chain rows, the key-switch scratch one more (p*).
const (
	slotA0    = iota // operand a0 → tensor output t0 / c0 in place
	slotA1           // operand a1 → a1·b0 cross term → BFV s0, CKKS rescaled c0'
	slotB0           // operand b0 → BFV s1, CKKS rescaled c1'
	slotB1           // operand b1 → t2 / c2 in place (the key-switch input)
	slotT1           // tensor accumulator t1 / c1 → BFV s2
	slotDigit        // current key-switch digit
	slotSop          // sum-of-products scratch
	slotKey          // streamed key component
	slotAcc0         // SoP accumulator 0 → result c0
	slotAcc1         // SoP accumulator 1 → result c1
	slotMd0          // ModDown landing 0 (CKKS only)
	slotMd1          // ModDown landing 1 (CKKS only)
	numCKKSSlots

	// The BFV programs never touch the ModDown landings, so their memory
	// file ends before them.
	numSlots = slotMd0
)

// MinSlots returns the memory-file size the BFV schedules need. The
// slot-reuse discipline makes it independent of the relinearization digit
// count.
func MinSlots() int { return numSlots }

// The RPAU batches a phase runs over: BFV's R_q work and CKKS's chain rows
// take one batch, the extended basis (BFV tensor, CKKS key switch) two.
var (
	batchQ  = []hwsim.Batch{hwsim.BatchQ}
	batchQP = []hwsim.Batch{hwsim.BatchQ, hwsim.BatchP}
)

// liveness tracks how many residue rows each memory-file slot must retain,
// and the peak across the schedule — the quantity the BRAM budget of the
// resource model constrains.
type liveness struct {
	rows map[uint8]int
	cur  int
	peak int
}

func (l *liveness) set(slot uint8, rows int) {
	l.cur += rows - l.rows[slot]
	l.rows[slot] = rows
	if l.cur > l.peak {
		l.peak = l.cur
	}
}

func (l *liveness) free(slots ...uint8) {
	for _, slot := range slots {
		l.set(slot, 0)
	}
}

func (l *liveness) reset() {
	clear(l.rows)
	l.cur, l.peak = 0, 0
}

// machine is what both schedulers drive a co-processor through: instruction
// issue and DMA with the optional trace, the liveness auditor, and the
// sub-sequences the BFV and CKKS programs share — operand send, result
// readback, the Add program, the transform and tensor phases, the rotation
// prologue and the key-switch digit loop. With Record set, every executed
// instruction and transfer is appended to Trace for the block-level overlap
// analysis (pipeline.go).
type machine struct {
	// C is the co-processor the programs run on: the BFV co-processor, or
	// the chain co-processor whose level register the CKKS scheduler points
	// at each operation's level.
	C *hwsim.Coprocessor

	Record bool
	Trace  []Task

	live liveness

	// rd and perm are the host side of the Rotate readback: the slot's rows
	// are copied out into rd, permuted into perm and loaded back. Allocated
	// over mods at the first rotation and sliced to the operand's rows.
	n        int
	mods     []ring.Modulus
	rd, perm poly.RNSPoly
}

func newMachine(c *hwsim.Coprocessor, mods []ring.Modulus, n int) machine {
	return machine{C: c, live: liveness{rows: map[uint8]int{}}, n: n, mods: mods}
}

// EnableIntegrity switches Freivalds-style fingerprint verification on for
// the co-processor. Operations then fail with an error wrapping
// hwsim.ErrIntegrity instead of returning a corrupted ciphertext.
func (m *machine) EnableIntegrity(seed int64) error { return m.C.EnableIntegrity(seed) }

// SetInjector attaches a fault injector to the co-processor (nil detaches).
func (m *machine) SetInjector(inj *faults.Injector) { m.C.SetInjector(inj) }

// SetMetrics routes the co-processor's integrity counters into reg
// (nil-safe).
func (m *machine) SetMetrics(reg *obs.Registry) { m.C.SetMetrics(reg) }

// ResiduePeak returns the residue-polynomial high-water mark of the last
// scheduled operation.
func (m *machine) ResiduePeak() int { return m.live.peak }

func (m *machine) exec(in hwsim.Instr) (hwsim.Cycles, error) {
	cyc, err := m.C.Exec(in)
	if err == nil && m.Record {
		m.Trace = append(m.Trace, in.Task(cyc))
	}
	return cyc, err
}

// run issues the instructions in order, stopping at the first error.
func (m *machine) run(ins ...hwsim.Instr) error {
	for _, in := range ins {
		if _, err := m.exec(in); err != nil {
			return err
		}
	}
	return nil
}

// ProgramListing renders the recorded trace as an assembly-style listing
// with per-step cycle counts — the instruction stream the Arm core would
// enqueue for the operation.
func (m *machine) ProgramListing() string {
	var b strings.Builder
	var total hwsim.Cycles
	for i, t := range m.Trace {
		fmt.Fprintf(&b, "%4d  %-34s ; %7d cycles  (%s)\n", i, t.Label, t.Cycles, t.Unit)
		total += t.Cycles
	}
	fmt.Fprintf(&b, "      total %d cycles = %.3f ms at 200 MHz\n", total, total.Seconds()*1e3)
	return b.String()
}

// transfer charges a DMA step, recording it against the written slots.
func (m *machine) transfer(t hwsim.Transfer, writes, reads []uint8) hwsim.Cycles {
	cyc := m.C.Transfer(t)
	if m.Record {
		m.Trace = append(m.Trace, Task{
			Label:  "DMA " + t.Label,
			Unit:   UnitDMA,
			Cycles: cyc,
			Reads:  reads,
			Writes: writes,
		})
	}
	return cyc
}

func (m *machine) reset() {
	m.C.ClearSlots()
	m.live.reset()
}

// begin clears the memory file and sends the operand polynomials, of `rows`
// residue rows each, to consecutive slots from slotA0 in the coefficient
// domain: the Arm→FPGA transfer, modelled as a single contiguous DMA (the
// paper's memory layout keeps the coefficients contiguous exactly for this).
// It returns the operation's report so far, the send's ledger entry, and the
// ledger reading the compute cycles count from.
func (m *machine) begin(rows int, els ...poly.RNSPoly) (Report, hwsim.Cycles) {
	m.reset()
	var written []uint8
	for i, el := range els {
		slot := slotA0 + uint8(i)
		m.C.LoadSlotCoeff(slot, 0, el.Rows)
		m.live.set(slot, rows)
		written = append(written, slot)
	}
	send := m.transfer(hwsim.Transfer{Bytes: len(els) * hwsim.PolyBytes(m.n, rows), Label: "send ciphertexts"}, written, nil)
	return Report{SendCycles: send}, m.C.Stats.Total
}

// finish closes an operation whose compute began at ledger reading start:
// the compute cycles stop here, a scrub keeps corrupted rows from leaving
// the co-processor, and the two result polynomials are read back over the
// FPGA→Arm DMA, which goes on the ledger as the report's receive entry.
func (m *machine) finish(rep Report, start hwsim.Cycles, el0, el1 uint8, rows int) ([]poly.RNSPoly, Report, error) {
	rep.ComputeCycles = m.C.Stats.Total - start
	if err := m.C.Scrub(); err != nil {
		return nil, Report{}, err
	}
	els := []poly.RNSPoly{
		{Rows: m.C.ReadSlot(el0, 0, rows)},
		{Rows: m.C.ReadSlot(el1, 0, rows)},
	}
	rep.ReceiveCycles = m.transfer(hwsim.Transfer{Bytes: 2 * hwsim.PolyBytes(m.n, rows), Label: "receive ciphertext"},
		nil, []uint8{el0, el1})
	return els, rep, nil
}

// readback copies the first `rows` rows of a slot into the rd scratch.
func (m *machine) readback(slot uint8, rows int) poly.RNSPoly {
	if m.rd.Rows == nil {
		m.rd = poly.NewRNSPoly(m.mods, m.n)
		m.perm = poly.NewRNSPoly(m.mods, m.n)
	}
	rd := poly.RNSPoly{Rows: m.rd.Rows[:rows]}
	m.C.ReadSlotInto(slot, 0, rd.Rows)
	return rd
}

// add is the whole Add operation: one coefficient-wise addition per
// ciphertext element. It returns the result polynomials and the report.
func (m *machine) add(rows int, a, b []poly.RNSPoly) ([]poly.RNSPoly, Report, error) {
	rep, start := m.begin(rows, a[0], a[1], b[0], b[1])
	for i := uint8(0); i < 2; i++ {
		m.live.set(slotAcc0+i, rows)
		if _, err := m.exec(hwsim.Instr{
			Op: hwsim.OpCAdd, Dst: slotAcc0 + i, A: slotA0 + i, B: slotB0 + i, Batch: hwsim.BatchQ,
		}); err != nil {
			return nil, Report{}, err
		}
	}
	return m.finish(rep, start, slotAcc0, slotAcc1, rows)
}

// toNTT rearranges each slot to the paired NTT layout and transforms it,
// batch by batch.
func (m *machine) toNTT(batches []hwsim.Batch, slots ...uint8) error {
	for _, slot := range slots {
		for _, batch := range batches {
			if err := m.run(
				hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: batch},
				hwsim.Instr{Op: hwsim.OpNTT, A: slot, Batch: batch}); err != nil {
				return err
			}
		}
	}
	return nil
}

// fromNTT inverse-transforms each slot and restores its coefficient layout,
// batch by batch.
func (m *machine) fromNTT(batches []hwsim.Batch, slots ...uint8) error {
	for _, slot := range slots {
		for _, batch := range batches {
			if err := m.run(
				hwsim.Instr{Op: hwsim.OpINTT, A: slot, Batch: batch},
				hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: batch}); err != nil {
				return err
			}
		}
	}
	return nil
}

// tensor multiplies the NTT-domain operands a0, a1, b0, b1 in slotA0..slotB1
// (4 CMul + 1 CAdd per batch), overwriting operands as they die so only one
// extra slot (slotT1) is ever needed:
//
//	T1 = a0·b1;  B1 = a1·b1 (t2);  A1 = a1·b0;  T1 += A1 (t1);  A0 = a0·b0 (t0).
func (m *machine) tensor(batches []hwsim.Batch) error {
	const a0, a1, b0, b1 = slotA0, slotA1, slotB0, slotB1
	for _, batch := range batches {
		if err := m.run(
			hwsim.Instr{Op: hwsim.OpCMul, Dst: slotT1, A: a0, B: b1, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCMul, Dst: b1, A: a1, B: b1, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCMul, Dst: a1, A: a1, B: b0, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCAdd, Dst: slotT1, A: slotT1, B: a1, Batch: batch},
			hwsim.Instr{Op: hwsim.OpCMul, Dst: a0, A: a0, B: b0, Batch: batch}); err != nil {
			return err
		}
	}
	return nil
}

// automorph applies σ_g to the two operand polynomials (`rows` rows each) in
// place: the sign-aware permutation is a host readback streamed through the
// rearrangement port, one pass per element. The readback reads just-loaded
// operands; scrub first so a glitched operand DMA cannot flow silently
// through the reload.
func (m *machine) automorph(g, rows int) error {
	if err := m.C.Scrub(); err != nil {
		return err
	}
	for _, slot := range []uint8{slotA0, slotA1} {
		rd := m.readback(slot, rows)
		perm := poly.RNSPoly{Rows: m.perm.Rows[:rows]}
		rlwe.AutomorphInto(g, rd, perm)
		m.C.LoadSlotCoeff(slot, 0, perm.Rows)
		if _, err := m.exec(hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: hwsim.BatchQ}); err != nil {
			return err
		}
	}
	return nil
}

// keySwitch is what differs between the three uses of the key-switch digit
// loop (BFV relinearization, BFV rotation, the CKKS hybrid key switch).
type keySwitch struct {
	// src is the coefficient-domain slot WordDecomp extracts digit i from.
	src uint8
	// keys[k][i] is the NTT-domain key component multiplied with digit i
	// into accumulator k.
	keys [2][]poly.RNSPoly
	// batches the digit, key and accumulators span, and their row count.
	batches []hwsim.Batch
	rows    int
	// label and bytes of one key component's DMA.
	label string
	bytes int
}

// keySwitch emits the digit loop: one digit at a time, extract, transform,
// stream the two key components from DDR (Table I: "Only during the
// relinearization steps, data transfer is needed to load the large
// relinearization keys") and multiply-accumulate into slotAcc0/slotAcc1,
// which are left in the NTT domain. The digit, key and product scratch slots
// are recycled every iteration — the memory file never holds more than one
// digit.
func (m *machine) keySwitch(ks keySwitch) error {
	for _, slot := range []uint8{slotDigit, slotSop, slotKey, slotAcc0, slotAcc1} {
		m.live.set(slot, ks.rows)
	}
	for i := range ks.keys[0] {
		if _, err := m.exec(hwsim.Instr{Op: hwsim.OpDecomp, Dst: slotDigit, A: ks.src, B: uint8(i)}); err != nil {
			return err
		}
		for _, batch := range ks.batches {
			if _, err := m.exec(hwsim.Instr{Op: hwsim.OpNTT, A: slotDigit, Batch: batch}); err != nil {
				return err
			}
		}
		for k, acc := range []uint8{slotAcc0, slotAcc1} {
			m.C.LoadSlotNTT(slotKey, 0, ks.keys[k][i].Rows)
			m.transfer(hwsim.Transfer{Bytes: ks.bytes, Label: ks.label}, []uint8{slotKey}, nil)
			for _, batch := range ks.batches {
				if err := m.run(
					hwsim.Instr{Op: hwsim.OpCMul, Dst: slotSop, A: slotDigit, B: slotKey, Batch: batch},
					hwsim.Instr{Op: hwsim.OpCAdd, Dst: acc, A: acc, B: slotSop, Batch: batch}); err != nil {
					return err
				}
			}
		}
	}
	m.live.free(slotDigit, slotSop, slotKey)
	return nil
}

// digitCycles prices one pass of the keySwitch loop body off the cost table,
// executing nothing: the WordDecomp, the digit's NTT per batch, and per
// accumulator the key component's DMA and a CMul + CAdd per batch.
func (m *machine) digitCycles(batches []hwsim.Batch, keyBytes int) hwsim.Cycles {
	c, nb := m.C, hwsim.Cycles(len(batches))
	mac := c.Cycles(hwsim.Instr{Op: hwsim.OpCMul}) + c.Cycles(hwsim.Instr{Op: hwsim.OpCAdd})
	return c.Cycles(hwsim.Instr{Op: hwsim.OpDecomp}) + nb*c.Cycles(hwsim.Instr{Op: hwsim.OpNTT}) +
		2*(c.DMAEng.FPGACycles(hwsim.Transfer{Bytes: keyBytes})+nb*mac)
}
