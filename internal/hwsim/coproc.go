package hwsim

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
)

// domainTag tracks whether a residue row currently holds coefficient- or
// NTT-domain data. Real hardware has no such tag; the simulator uses it to
// catch scheduler bugs (e.g. multiplying a transformed row by an
// untransformed one) instead of silently computing garbage.
type domainTag uint8

const (
	// domEmpty marks a row that was wiped or never written. It reads as zero;
	// what its storage holds is stale and is zero-filled only if something
	// reads the row before an instruction overwrites it (see row and wrow).
	domEmpty domainTag = iota
	// domZero is a materialized all-zero row no instruction has given a
	// domain yet — a valid operand in either domain.
	domZero
	domCoeff
	domNTT
)

// slot is one entry of the co-processor's memory file: space for a full
// extended-basis polynomial. The file is resident, as the paper's BRAM is: a
// row's storage is allocated at its first touch and then kept for the life
// of the co-processor; ClearSlots only marks it empty.
type slot struct {
	rows   []poly.Poly
	domain []domainTag
	// tags/tagged are the per-row integrity fingerprints, maintained only
	// when the co-processor's checker is enabled (integrity.go).
	tags   []uint64
	tagged []bool
}

// Stats accumulates per-opcode call counts and cycles — the raw material of
// the paper's Table II — plus DMA transfer time.
type Stats struct {
	PerOp           map[Op]*OpStat
	TransferSeconds float64
	TransferCalls   int
	Total           Cycles
}

// OpStat is the per-opcode aggregate.
type OpStat struct {
	Calls       int
	TotalCycles Cycles
}

// PerCall returns the average cycles per call.
func (s *OpStat) PerCall() Cycles {
	if s.Calls == 0 {
		return 0
	}
	return s.TotalCycles / Cycles(s.Calls)
}

// Ops returns the opcodes seen, in a stable order.
func (s *Stats) Ops() []Op {
	var ops []Op
	for op := range s.PerOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// Coprocessor is the instruction-set co-processor of the paper's Fig. 10:
// a memory file, seven (in the paper's configuration) RPAUs serving the
// 6+7 RNS primes in two batches, and the parallel Lift/Scale cores. It
// executes programs functionally on the poly/rns kernels and charges every
// instruction its entry in the cost table (cost.go).
type Coprocessor struct {
	Mods   []ring.Modulus // q primes then p primes
	KQ, KP int
	N      int
	Timing Timing
	DMAEng DMA

	// Basis is the CRT basis WordDecomp extracts gadget digits over (the q
	// part of the row set). The BFV co-processor inherits it from the
	// Extender's source basis; on the chain co-processor it is the level's
	// prefix basis.
	Basis *rns.Basis

	// chain is the CKKS chain co-processor's modulus chain (nil on the BFV
	// co-processor) and level its level register: Mods, KQ, Basis and tables
	// are chain's level-`level` views. width is the row count of a slot —
	// every row set's, so the chain co-processor's is the top level's.
	chain *Chain
	level int
	width int

	// The datapaths' functional kernels. tables[j] is the twiddle ROM of
	// residue row j, held by the RPAU serving that prime. ext and scaler are
	// the BFV co-processor's Lift and Scale; the chain co-processor's Rescale
	// runs chain's rescalers. liftBits and scaleBits are the widths of q and
	// Q, what the traditional division's price depends on.
	tables              []*poly.NTTTable
	ext                 *rns.Extender
	scaler              *rns.ScaleRounder
	liftBits, scaleBits int

	// Pool fans the per-prime row loops of Exec across goroutines — the
	// simulator actually computing the way the hardware does, with every
	// RPAU working its residue polynomial concurrently. Inherited from the
	// Extender's pool (the parameter set's) at construction; nil runs the
	// rows sequentially with identical results.
	Pool *poly.Pool

	// Trace, when non-nil, receives one cycle span per retired instruction
	// and DMA step (obs.Tracer.CycleSpan): the instruction-level schedule of
	// the paper's Fig. 3 in the same span shape the software pipeline emits
	// for wall-clock stages, so the two profiles align. The span cycles sum
	// to Stats.Total over the same window.
	Trace *obs.Tracer

	slots []slot
	Stats *Stats

	// Per-instruction scratch. One instruction executes at a time, so the
	// row headers an engine is handed and the WordDecomp digit stream are the
	// co-processor's, not each instruction's.
	hdrs  []poly.Poly
	digit []uint64

	// integrity, injector, and metrics are the robustness layer: nil means
	// disabled and costs two nil checks per Exec (integrity.go). guard is the
	// guarded path's resident working state.
	integrity *integrityChecker
	injector  *faults.Injector
	metrics   *obs.Registry
	guard     preState
}

// New builds a co-processor over the given bases. slotCount sizes the memory
// file (the paper provisions enough on-chip memory for two operand
// ciphertexts and all Mult intermediates; the BFV programs of internal/sched
// need sched.MinSlots() = 10, the CKKS ones 12) and must lie in [1, 256]:
// instructions and DMA calls address a slot in one byte.
func New(qmods, pmods []ring.Modulus, n int,
	ext *rns.Extender, sc *rns.ScaleRounder,
	timing Timing, slotCount int) (*Coprocessor, error) {

	if slotCount < 1 || slotCount > 256 {
		return nil, fmt.Errorf("hwsim: %d memory-file slots outside [1, 256]", slotCount)
	}
	kq, kp := len(qmods), len(pmods)
	if kq == 0 || kp == 0 {
		return nil, fmt.Errorf("hwsim: need both q and p primes")
	}
	all := append(append([]ring.Modulus(nil), qmods...), pmods...)
	c := &Coprocessor{
		Mods: all, KQ: kq, KP: kp, N: n,
		Timing:    timing,
		Pool:      ext.Pool,
		ext:       ext,
		scaler:    sc,
		liftBits:  ext.Src.Product.BitLen(),
		scaleBits: sc.QP.Product.BitLen(),
		Basis:     ext.Src,
		width:     kq + kp,
		DMAEng:    DMA{Timing: timing},
		slots:     make([]slot, slotCount),
		Stats:     &Stats{PerOp: map[Op]*OpStat{}},
	}
	c.tables = make([]*poly.NTTTable, len(all))
	for j, m := range all {
		t, err := poly.NewNTTTable(m, n)
		if err != nil {
			return nil, err
		}
		c.tables[j] = t
	}
	return c, nil
}

// Chain is the CKKS modulus chain q_0..q_L with the keyswitch special prime
// p*, as the per-level views the chain co-processor's level register
// selects. The fields are the ones ckks.Params holds for the software —
// KSMods, TrKS, BasisLevel, Rescaler and RescalerKS — so the hardware
// builds none of them a second time.
type Chain struct {
	// Mods[ℓ] is level ℓ's row set (q_0..q_ℓ, p*) and NTT[ℓ] its twiddle
	// ROMs, one table per row.
	Mods [][]ring.Modulus
	NTT  []*poly.Transformer
	// Basis[ℓ] is level ℓ's gadget basis q_0..q_ℓ.
	Basis []*rns.Basis
	// Rescale divides by the top prime of any chain prefix; ModDown[ℓ]
	// divides level ℓ's row set by p*.
	Rescale *rns.Rescaler
	ModDown []*rns.Rescaler
}

// NewCoprocessorChain builds the CKKS chain co-processor: one memory file and
// one set of RPAUs sized for the whole chain, its level register at the top,
// L. In place of the BFV Lift/Scale engines it carries the Rescale datapath,
// and WordDecomp extends digits onto the p* row — the two dataflow
// differences between HPS scaling and CKKS rescaling on otherwise identical
// RPAU hardware.
func NewCoprocessorChain(ch Chain, n int, pool *poly.Pool, timing Timing, slotCount int) *Coprocessor {
	top := len(ch.Mods) - 1
	c := &Coprocessor{
		KP: 1, N: n,
		Timing: timing,
		Pool:   pool,
		chain:  &ch,
		width:  len(ch.Mods[top]),
		DMAEng: DMA{Timing: timing},
		slots:  make([]slot, slotCount),
		Stats:  &Stats{PerOp: map[Op]*OpStat{}},
	}
	c.setLevel(top)
	return c
}

// SetLevel points the chain co-processor's level register at ℓ: from here
// on its row set is (q_0..q_ℓ, p*), with that level's twiddle ROMs, gadget
// basis, ModDown and integrity weights, over the same memory file. Row j
// holds a different prime at another level, so the switch clears the file
// first — ClearSlots' flush check reads every row under the level it was
// written at. It charges no cycles and allocates nothing.
func (c *Coprocessor) SetLevel(level int) error {
	if c.chain == nil {
		return fmt.Errorf("hwsim: the BFV co-processor has no level register")
	}
	if level < 0 || level >= len(c.chain.Mods) {
		return fmt.Errorf("hwsim: level %d outside the %d-level chain", level, len(c.chain.Mods))
	}
	c.ClearSlots()
	c.setLevel(level)
	return nil
}

func (c *Coprocessor) setLevel(level int) {
	ch := c.chain
	c.level, c.KQ = level, level+1
	c.Mods, c.tables, c.Basis = ch.Mods[level], ch.NTT[level].Tables, ch.Basis[level]
	if c.integrity != nil {
		c.integrity.at(c.KQ)
	}
}

// NumRPAUs returns the RPAU count (⌈13/2⌉ = 7 for the paper set). By the
// resource sharing of Sec. V-A1, RPAU i serves q_i and p_i: with kp = kq+1
// the last RPAU serves only the final p prime, and with kp = 1, the chain
// shape, RPAU 0 shares the special prime. The chain co-processor's count is
// the whole chain's, whatever its level register holds.
func (c *Coprocessor) NumRPAUs() int { return max(c.width-c.KP, c.KP) }

// digitRows is the row count WordDecomp writes: the q rows, and on the chain
// co-processor the p* row too — a gadget digit is a small integer, so its
// residue mod p* is one more reduction pass, the digit extension of the
// hybrid keyswitch (BFV keys carry no extension row).
func (c *Coprocessor) digitRows() int {
	if c.chain != nil {
		return c.KQ + c.KP
	}
	return c.KQ
}

// batchRange returns the prime-index range [lo, hi) of a batch.
func (c *Coprocessor) batchRange(b Batch) (int, int) {
	if b == BatchQ {
		return 0, c.KQ
	}
	return c.KQ, c.KQ + c.KP
}

func (c *Coprocessor) slotAt(i uint8) *slot {
	if int(i) >= len(c.slots) {
		panic(fmt.Sprintf("hwsim: slot %d out of range (memory file has %d)", i, len(c.slots)))
	}
	return &c.slots[i]
}

func (c *Coprocessor) ensureRows(s *slot) {
	if s.rows == nil {
		s.rows = make([]poly.Poly, c.width)
		s.domain = make([]domainTag, c.width)
	}
}

// row returns residue row j of a slot for reading (or accumulating into). An
// empty row is materialized first — allocated if this is its first touch,
// zero-filled if it holds stale data from before the last clear — which is
// the whole of the reads-as-zero invariant.
func (c *Coprocessor) row(s *slot, j int) poly.Poly {
	r := c.wrow(s, j)
	if s.domain[j] == domEmpty {
		clear(r.Coeffs)
		s.domain[j] = domZero
	}
	return r
}

// wrow returns residue row j of a slot for an instruction that overwrites
// every coefficient of it: stale contents are not cleared. The caller sets
// the row's domain tag once the write cannot fail; until then a wiped row
// stays empty. The row takes the current level's prime j: on the chain
// co-processor the same storage holds q_{ℓ+1} at one level and p* below it.
func (c *Coprocessor) wrow(s *slot, j int) poly.Poly {
	c.ensureRows(s)
	if s.rows[j].Coeffs == nil {
		s.rows[j].Coeffs = make([]uint64, c.N)
	}
	s.rows[j].Mod = c.Mods[j]
	return s.rows[j]
}

// rowHdrs returns n ≤ 2·width row headers of co-processor-owned scratch —
// room for the widest instruction's input and output row sets side by side.
func (c *Coprocessor) rowHdrs(n int) []poly.Poly {
	if c.hdrs == nil {
		c.hdrs = make([]poly.Poly, 2*c.width)
	}
	return c.hdrs[:n]
}

// LoadSlot copies rows into residue rows [lo, lo+len(rows)) of a slot (host
// view; DMA timing is charged by the Transfer steps the scheduler emits). A
// row of the wrong modulus or length, or past the end of the row set, is a
// scheduler bug and panics. With the checker enabled, each row is tagged from
// the clean source data before any DMA fault corrupts the stored copy, so a
// glitched burst is caught at the row's next read.
func (c *Coprocessor) LoadSlot(idx uint8, lo int, rows []poly.Poly, d domainTag) {
	s := c.slotAt(idx)
	if lo < 0 || lo+len(rows) > c.KQ+c.KP {
		panic(fmt.Sprintf("hwsim: LoadSlot rows [%d, %d) outside the %d-row set", lo, lo+len(rows), c.KQ+c.KP))
	}
	for i, r := range rows {
		j := lo + i
		if r.Mod.Q != c.Mods[j].Q {
			panic("hwsim: LoadSlot modulus mismatch")
		}
		if len(r.Coeffs) != c.N {
			panic(fmt.Sprintf("hwsim: LoadSlot row of %d coefficients, want %d", len(r.Coeffs), c.N))
		}
		dst := c.wrow(s, j)
		copy(dst.Coeffs, r.Coeffs)
		s.domain[j] = d
		if c.integrity != nil {
			c.ensureTags(s)
			s.tags[j] = c.integrity.fpSlice(j, dst.Coeffs, dst.Mod)
			s.tagged[j] = true
		}
	}
	if f := c.injector.Opportunity(faults.ClassDMA); f != nil && len(rows) > 0 {
		// Garble one stored row of this burst, in-range so only the
		// fingerprint (not a range check) can tell.
		row := s.rows[lo+f.Pick(len(rows))]
		q := row.Mod.Q
		for i := range row.Coeffs {
			row.Coeffs[i] = f.Word() % q
		}
	}
}

// LoadSlotCoeff loads coefficient-domain rows starting at prime index lo.
func (c *Coprocessor) LoadSlotCoeff(idx uint8, lo int, rows []poly.Poly) {
	c.LoadSlot(idx, lo, rows, domCoeff)
}

// LoadSlotNTT loads NTT-domain rows starting at prime index lo.
func (c *Coprocessor) LoadSlotNTT(idx uint8, lo int, rows []poly.Poly) {
	c.LoadSlot(idx, lo, rows, domNTT)
}

// ReadSlot returns fresh copies of residue rows [lo, hi) of a slot — the
// result readback, whose rows outlive the operation.
func (c *Coprocessor) ReadSlot(idx uint8, lo, hi int) []poly.Poly {
	s := c.slotAt(idx)
	out := make([]poly.Poly, 0, hi-lo)
	for j := lo; j < hi; j++ {
		out = append(out, c.row(s, j).Clone())
	}
	return out
}

// ReadSlotInto copies residue rows [lo, lo+len(dst)) of a slot into the
// caller's rows — the readback of a host-side step (the Rotate permutation)
// into scratch the scheduler keeps.
func (c *Coprocessor) ReadSlotInto(idx uint8, lo int, dst []poly.Poly) {
	s := c.slotAt(idx)
	for i := range dst {
		copy(dst[i].Coeffs, c.row(s, lo+i).Coeffs)
	}
}

// ClearSlots wipes the memory file (between independent operations). The
// wipe keeps every slot's storage and marks every row empty: it charges no
// cycles (a BRAM reset) and touches no coefficient, and the next operation
// sees zeros whatever the last one left behind (row). With the checker
// enabled, still-corrupted rows are counted as flush detections on their way
// out, so faults in state an aborted operation never re-read stay accounted
// for and the chaos ledger balances.
func (c *Coprocessor) ClearSlots() {
	for i := range c.slots {
		s := &c.slots[i]
		if ic := c.integrity; ic != nil {
			for j, t := range s.tagged {
				if t && ic.fpSlice(j, s.rows[j].Coeffs, s.rows[j].Mod) != s.tags[j] {
					c.count("hw_integrity_flush_detected")
				}
			}
		}
		clear(s.domain)
		clear(s.tagged)
	}
}

// Reset zeroes the ledger in place: everyone holding the pointer — the
// CKKS scheduler and its chain co-processor share one ledger — sees the
// cleared ledger, and a per-operation reset allocates no new map.
func (s *Stats) Reset() {
	clear(s.PerOp)
	s.TransferSeconds, s.TransferCalls, s.Total = 0, 0, 0
}

// ResetStats zeroes the statistics.
func (c *Coprocessor) ResetStats() { c.Stats.Reset() }

// Run executes a program and returns its total duration in FPGA cycles
// (instructions plus DMA steps).
func (c *Coprocessor) Run(p *Program) (Cycles, error) {
	var total Cycles
	for _, st := range p.Steps {
		switch {
		case st.Instr != nil:
			cyc, err := c.Exec(*st.Instr)
			if err != nil {
				return total, err
			}
			total += cyc
		case st.Transfer != nil:
			total += c.Transfer(*st.Transfer)
		}
	}
	return total, nil
}

// Transfer charges a DMA transfer and returns its FPGA-cycle duration.
func (c *Coprocessor) Transfer(t Transfer) Cycles {
	sec := c.DMAEng.Seconds(t)
	c.Stats.TransferSeconds += sec
	c.Stats.TransferCalls++
	cyc := Cycles(sec * FPGAClockHz)
	c.Stats.Total += cyc
	c.Trace.CycleSpan("dma", uint64(cyc))
	return cyc
}

// Exec executes one instruction and returns its FPGA-cycle duration, which
// is Cycles(in). With a fault injector or the integrity checker attached it
// runs the guarded path (integrity.go), which may add an injected stall and
// the cycles of a recomputation; otherwise it is the seed path bit-for-bit
// and cycle-for-cycle.
func (c *Coprocessor) Exec(in Instr) (Cycles, error) {
	if c.integrity == nil && c.injector == nil {
		return c.execOp(in)
	}
	return c.execGuarded(in)
}

// execOp is the raw instruction interpreter shared by both paths: it runs the
// instruction's kernels and then charges its cost-table entry. Every
// instruction validates its operands (materializing the rows it reads) before
// it writes anything, so a refused instruction leaves the memory file as it
// found it and charges nothing; rows an instruction overwrites in full are
// taken with wrow and never cleared first.
func (c *Coprocessor) execOp(in Instr) (Cycles, error) {
	switch in.Op {
	case OpNTT, OpINTT:
		lo, hi := c.batchRange(in.Batch)
		s := c.slotAt(in.A)
		want, set := domCoeff, domNTT
		if in.Op == OpINTT {
			want, set = domNTT, domCoeff
		}
		// Validate domains and materialize rows up front, then let the RPAUs
		// transform their residue polynomials concurrently, as the hardware
		// does.
		rows := c.rowHdrs(hi - lo)
		for j := lo; j < hi; j++ {
			rows[j-lo] = c.row(s, j)
			if d := s.domain[j]; d != domZero && d != want {
				return 0, fmt.Errorf("hwsim: %v on slot %d row %d in wrong domain", in.Op, in.A, j)
			}
		}
		for j := lo; j < hi; j++ {
			s.domain[j] = set
		}
		tables := c.tables[lo:hi]
		inverse := in.Op == OpINTT
		c.Pool.Run(c.N*len(rows), len(rows), func(i int) {
			if inverse {
				tables[i].Inverse(rows[i].Coeffs)
			} else {
				tables[i].Forward(rows[i].Coeffs)
			}
		})

	case OpCMul, OpCAdd, OpCSub, OpCMac:
		lo, hi := c.batchRange(in.Batch)
		sa, sb, sd := c.slotAt(in.A), c.slotAt(in.B), c.slotAt(in.Dst)
		// Operand check first (domain mixing is a scheduler bug), then the
		// bookkeeping — the result inherits the operands' domain — then the
		// concurrent row sweep. Every one of these is a per-coefficient map,
		// so Dst may alias either operand. CMac accumulates, so it reads its
		// destination; the other three overwrite it.
		for j := lo; j < hi; j++ {
			c.row(sa, j)
			c.row(sb, j)
			if sa.domain[j] != domZero && sb.domain[j] != domZero && sa.domain[j] != sb.domain[j] {
				return 0, fmt.Errorf("hwsim: %v mixes domains (slot %d row %d)", in.Op, in.A, j)
			}
		}
		for j := lo; j < hi; j++ {
			dom := sa.domain[j]
			if dom == domZero {
				dom = sb.domain[j]
			}
			if in.Op == OpCMac {
				c.row(sd, j)
			} else {
				c.wrow(sd, j)
			}
			sd.domain[j] = dom
		}
		op := in.Op
		c.Pool.Run(c.N*(hi-lo), hi-lo, func(i int) {
			j := lo + i
			a, b, d := sa.rows[j], sb.rows[j], sd.rows[j]
			switch op {
			case OpCMul:
				a.MulInto(b, d)
			case OpCAdd:
				a.AddInto(b, d)
			case OpCSub:
				a.SubInto(b, d)
			case OpCMac:
				a.MulAddInto(b, d) // the SoP primitive of relinearization
			}
		})

	case OpRearr:
		// A layout conversion: the simulator's rows have one layout, so it
		// moves no data and only costs its pass.

	case OpDecomp:
		// RNS gadget digit for relinearization (the fast architecture's
		// WordDecomp, Sec. II-B): d = x_i·q̃_i mod q_i, replicated across the
		// q rows.
		i := int(in.B)
		if i < 0 || i >= c.KQ {
			return 0, fmt.Errorf("hwsim: Decomp digit index %d out of range", i)
		}
		s := c.slotAt(in.A)
		c.ensureRows(s)
		if s.domain[i] != domCoeff {
			return 0, fmt.Errorf("hwsim: Decomp needs coefficient-domain input")
		}
		src := s.rows[i]
		sd := c.slotAt(in.Dst)
		m := c.Mods[i]
		// The scalar product d = x·q̃_i mod q_i is row-invariant: compute the
		// digit stream once (the hardware's single scalar multiplier at the
		// rearrangement port), then each RPAU reduces it into its own row the
		// way the software decomposition does (rns.ReplicateDigitInto) —
		// so Dst may be A: the source row is consumed before any row is
		// written. On the chain co-processor the sweep extends onto the p*
		// row (digitRows).
		hi := c.digitRows()
		if c.digit == nil {
			c.digit = make([]uint64, c.N)
		}
		digit := c.digit
		qTilde := c.Basis.QTilde[i]
		qTildeShoup := m.ShoupPrecomp(qTilde)
		m.VecScalarMulShoupInto(digit, src.Coeffs, qTilde, qTildeShoup)
		for j := 0; j < hi; j++ {
			c.wrow(sd, j)
			sd.domain[j] = domCoeff
		}
		qi := m.Q
		c.Pool.Run(c.N*hi, hi, func(j int) {
			rns.ReplicateDigitInto(c.Mods[j], sd.rows[j].Coeffs, digit, qi)
		})

	case OpLift:
		if c.ext == nil {
			return 0, fmt.Errorf("hwsim: Lift is not implemented on the chain co-processor")
		}
		s := c.slotAt(in.A)
		qRows, err := c.coeffRows(in, s, c.rowHdrs(c.KQ + c.KP)[:c.KQ])
		if err != nil {
			return 0, err
		}
		// In place: the slot gains its p rows, written in full by the kernel.
		pRows := c.hdrs[c.KQ : c.KQ+c.KP]
		for j := range pRows {
			pRows[j] = c.wrow(s, c.KQ+j)
		}
		c.ext.LiftTargetsInto(poly.RNSPoly{Rows: qRows}, pRows)
		for j := c.KQ; j < c.KQ+c.KP; j++ {
			s.domain[j] = domCoeff
		}

	case OpScale:
		if c.scaler == nil {
			return 0, fmt.Errorf("hwsim: Scale is not implemented on the chain co-processor")
		}
		full := c.KQ + c.KP
		all, err := c.coeffRows(in, c.slotAt(in.A), c.rowHdrs(full + c.KQ)[:full])
		if err != nil {
			return 0, err
		}
		// Dst may be A: the Scale kernels read every residue of a
		// coefficient stripe before they write its q rows.
		sd := c.slotAt(in.Dst)
		out := c.hdrs[full : full+c.KQ]
		for j := range out {
			out[j] = c.wrow(sd, j)
		}
		c.scaler.ScalePolyInto(poly.RNSPoly{Rows: all}, poly.RNSPoly{Rows: out})
		for j := 0; j < c.KQ; j++ {
			sd.domain[j] = domCoeff
		}

	case OpRescale:
		if c.chain == nil {
			return 0, fmt.Errorf("hwsim: Rescale needs the chain co-processor")
		}
		// Batch Q divides by the top chain prime (rows 0..KQ → 0..KQ-1);
		// batch P divides the extended row set by the special prime
		// (rows 0..KQ+KP → 0..KQ) — the keyswitch ModDown. They are the
		// rescalers the software evaluator runs, so hardware/software parity
		// on Rescale holds by construction.
		hi, resc := c.KQ, c.chain.Rescale
		if in.Batch == BatchP {
			hi, resc = c.KQ+c.KP, c.chain.ModDown[c.level]
		}
		if hi < 2 {
			return 0, fmt.Errorf("hwsim: Rescale at the bottom of the chain")
		}
		x, err := c.coeffRows(in, c.slotAt(in.A), c.rowHdrs(2*hi - 1)[:hi])
		if err != nil {
			return 0, err
		}
		// Dst may be A: output row j depends on input rows j and hi-1 only,
		// and the top row is not written.
		sd := c.slotAt(in.Dst)
		out := c.hdrs[hi : 2*hi-1]
		for j := range out {
			out[j] = c.wrow(sd, j)
			sd.domain[j] = domCoeff
		}
		resc.RescaleInto(c.Pool, poly.RNSPoly{Rows: x}, poly.RNSPoly{Rows: out})

	default:
		return 0, fmt.Errorf("hwsim: unknown opcode %v", in.Op)
	}

	cyc := c.Cycles(in)
	st, ok := c.Stats.PerOp[in.Op]
	if !ok {
		st = &OpStat{}
		c.Stats.PerOp[in.Op] = st
	}
	st.Calls++
	st.TotalCycles += cyc
	c.Stats.Total += cyc
	c.Trace.CycleSpan(in.Op.String(), uint64(cyc))
	return cyc, nil
}

// coeffRows fills hdrs with the leading residue rows of s, the input of a
// Lift, Scale or Rescale, refusing any that is not coefficient-domain data.
func (c *Coprocessor) coeffRows(in Instr, s *slot, hdrs []poly.Poly) ([]poly.Poly, error) {
	c.ensureRows(s)
	for j := range hdrs {
		if s.domain[j] != domCoeff {
			return nil, fmt.Errorf("hwsim: %v needs coefficient-domain input (slot %d row %d)", in.Op, in.A, j)
		}
		hdrs[j] = s.rows[j]
	}
	return hdrs, nil
}
