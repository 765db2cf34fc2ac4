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

// operandSlots are the slots begin sends operands to, in order.
var operandSlots = [...]uint8{slotA0, slotA1, slotB0, slotB1}

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

	// inPlace: the result may be computed in the destination (bind).
	inPlace bool
	n       int
	mods    []ring.Modulus
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
		m.Trace = append(m.Trace, t.Task(cyc, reads, writes))
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
// On the fused path the slots are views (hwsim.Coprocessor.ViewSlot) and no
// coefficient moves. Unless out, the destination, shares a row with an
// operand, the result may be computed in place (bind). It returns the
// operation's report so far, the send's ledger entry, and the ledger reading
// the compute cycles count from.
func (m *machine) begin(out []poly.RNSPoly, rows int, els ...poly.RNSPoly) (Report, hwsim.Cycles) {
	m.reset()
	m.inPlace = m.C.Fused() && !sharesRow(out, els)
	for i, el := range els {
		slot := operandSlots[i]
		m.C.ViewSlot(slot, el.Rows)
		m.live.set(slot, rows)
	}
	send := m.transfer(hwsim.Transfer{Bytes: len(els) * hwsim.PolyBytes(m.n, rows), Label: "send ciphertexts"},
		operandSlots[:len(els)], nil)
	return Report{SendCycles: send}, m.C.Stats.Total
}

// sharesRow reports whether a row of out — or one its capacity holds, which
// rlwe.Reshape may reuse — is a row of one of els.
func sharesRow(out, els []poly.RNSPoly) bool {
	for _, o := range out[:cap(out)] {
		for _, r := range o.Rows[:cap(o.Rows)] {
			for _, el := range els {
				for _, x := range el.Rows {
					if len(r.Coeffs) > 0 && len(x.Coeffs) > 0 && &r.Coeffs[0] == &x.Coeffs[0] {
						return true
					}
				}
			}
		}
	}
	return false
}

// bind points the result slots el0 and el1 at *out, shaped by rlwe.Reshape,
// before any instruction writes them (hwsim.Coprocessor.BindSlot), so the
// result is computed where finish would copy it. On the guarded path, or
// when out shares a row with an operand, finish copies it out as before.
func (m *machine) bind(out *[]poly.RNSPoly, el0, el1 uint8, rows int) {
	if !m.inPlace {
		return
	}
	rlwe.Reshape(out, 2, m.mods[:rows], m.n)
	m.C.BindSlot(el0, (*out)[0].Rows)
	m.C.BindSlot(el1, (*out)[1].Rows)
}

// finish closes an operation whose compute began at ledger reading start:
// the compute cycles stop here, a scrub keeps corrupted rows from leaving
// the co-processor, and the two result polynomials are read back over the
// FPGA→Arm DMA, which goes on the ledger as the report's receive entry. The
// readback lands in *out, shaped to `rows` rows by rlwe.Reshape — the rule a
// recycled operand is decoded under — so a destination the caller recycles
// costs no allocation; a result bound to *out (bind) is already there. On
// the guarded path *out is untouched when the scrub fails.
func (m *machine) finish(out *[]poly.RNSPoly, rep Report, start hwsim.Cycles, el0, el1 uint8, rows int) (Report, error) {
	rep.ComputeCycles = m.C.Stats.Total - start
	if err := m.C.Scrub(); err != nil {
		return Report{}, err
	}
	rlwe.Reshape(out, 2, m.mods[:rows], m.n)
	m.C.ReadSlotInto(el0, 0, (*out)[0].Rows)
	m.C.ReadSlotInto(el1, 0, (*out)[1].Rows)
	var read []uint8
	if m.Record {
		read = []uint8{el0, el1}
	}
	rep.ReceiveCycles = m.transfer(hwsim.Transfer{Bytes: 2 * hwsim.PolyBytes(m.n, rows), Label: "receive ciphertext"},
		nil, read)
	return rep, nil
}

// add is the whole Add operation: one coefficient-wise addition per
// ciphertext element, the result read back into *out.
func (m *machine) add(out *[]poly.RNSPoly, rows int, a, b []poly.RNSPoly) (Report, error) {
	defer m.C.Unbind()
	rep, start := m.begin(*out, rows, a[0], a[1], b[0], b[1])
	m.bind(out, slotAcc0, slotAcc1, rows)
	for i := uint8(0); i < 2; i++ {
		m.live.set(slotAcc0+i, rows)
		if _, err := m.exec(hwsim.Instr{
			Op: hwsim.OpCAdd, Dst: slotAcc0 + i, A: slotA0 + i, B: slotB0 + i, Batch: hwsim.BatchQ,
		}); err != nil {
			return Report{}, err
		}
	}
	return m.finish(out, rep, start, slotAcc0, slotAcc1, rows)
}

// fresh is what an allocating form returns from its Into form: the new
// result, or nothing when the operation failed.
func fresh[T any](out *T, rep Report, err error) (*T, Report, error) {
	if err != nil {
		return nil, Report{}, err
	}
	return out, rep, nil
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

// automorph reloads the two operand slots with σ_g of the operands els
// (hwsim.Coprocessor.LoadSlotAutomorph), one pass through the rearrangement
// port per element. The guarded path scrubs its copies of els first, so a
// glitched operand DMA cannot pass unnoticed.
func (m *machine) automorph(g int, els []poly.RNSPoly) error {
	if err := m.C.Scrub(); err != nil {
		return err
	}
	for i, slot := range []uint8{slotA0, slotA1} {
		m.C.LoadSlotAutomorph(slot, g, els[i].Rows)
		if _, err := m.exec(hwsim.Instr{Op: hwsim.OpRearr, A: slot, Batch: hwsim.BatchQ}); err != nil {
			return err
		}
	}
	return nil
}

// digitLoop is the key-switch digit loop (hwsim.KeySwitch) over this memory
// file's scratch and accumulator slots: the digits of src against keys, over
// batches, each key component streamed as one DMA of `bytes` bytes.
func digitLoop(src uint8, keys [2][]poly.RNSPoly, batches []hwsim.Batch, label string, bytes int) hwsim.KeySwitch {
	return hwsim.KeySwitch{
		Src: src, Digit: slotDigit, Sop: slotSop, Key: slotKey, Acc: [2]uint8{slotAcc0, slotAcc1},
		Keys: keys, Batches: batches, Stream: hwsim.Transfer{Bytes: bytes, Label: label},
	}
}

// keySwitch runs the digit loop on the co-processor — one digit at a time,
// extract, transform, stream the two key components from DDR and
// multiply-accumulate into slotAcc0/slotAcc1, which are left in the NTT
// domain — with its `rows` residue rows on the liveness auditor: the digit,
// key and product scratch is recycled every iteration, so the memory file
// never holds more than one digit, and dies with the loop.
func (m *machine) keySwitch(ks hwsim.KeySwitch, rows int) error {
	for _, slot := range []uint8{slotDigit, slotSop, slotKey, slotAcc0, slotAcc1} {
		m.live.set(slot, rows)
	}
	var trace *[]Task
	if m.Record {
		trace = &m.Trace
	}
	if err := m.C.KeySwitch(ks, trace); err != nil {
		return err
	}
	m.live.free(slotDigit, slotSop, slotKey)
	return nil
}
