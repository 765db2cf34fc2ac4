package hwsim

import (
	"errors"
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

// Variant names a co-processor generation. Only the HPS architecture
// executes; the traditional multi-precision one is priced from the cost
// table (TraditionalCycles, sched.TraditionalMul). The type, VariantHPS and
// NewCoprocessor's variant argument survive only because bench/ compiles
// against them (ROADMAP item 1(a)).
type Variant int

// VariantHPS is the HPS-optimized architecture, the one that executes.
const VariantHPS Variant = 0

// ErrVariant refuses a co-processor of any variant but VariantHPS.
var ErrVariant = errors.New("hwsim: only the HPS co-processor executes; the traditional architecture is priced, not run")

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
	// Extender's source basis; the CKKS chain co-processor is built with the
	// level's prefix basis directly.
	Basis *rns.Basis

	// extendDigits widens WordDecomp's destination to the full row set
	// (q rows plus the special prime): a gadget digit is a small integer, so
	// its residue mod p* is one more reduction pass — the digit extension of
	// the hybrid keyswitch. BFV keys carry no extension row, so the BFV
	// co-processor leaves this off.
	extendDigits bool

	// The datapaths' functional kernels. tables[j] is the twiddle ROM of
	// residue row j, held by the RPAU serving that prime. ext and scaler are
	// the BFV co-processor's Lift and Scale; rescQ (divide by the top chain
	// prime, any chain prefix) and rescP (divide the extended key-switch rows
	// by the special prime: the ModDown) are the chain co-processor's
	// Rescale. liftBits and scaleBits are the widths of q and Q, what the
	// traditional division's price depends on.
	tables              []*poly.NTTTable
	ext                 *rns.Extender
	scaler              *rns.ScaleRounder
	rescQ, rescP        *rns.Rescaler
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

// NewCoprocessor builds a co-processor over the given bases. slotCount sizes
// the memory file (the paper provisions enough on-chip memory for two
// operand ciphertexts and all Mult intermediates; 24 slots suffice for the
// scheduler in internal/sched). A variant other than VariantHPS fails with
// ErrVariant.
func NewCoprocessor(qmods, pmods []ring.Modulus, n int,
	ext *rns.Extender, sc *rns.ScaleRounder,
	variant Variant, timing Timing, slotCount int) (*Coprocessor, error) {

	if variant != VariantHPS {
		return nil, fmt.Errorf("%w (variant %d)", ErrVariant, variant)
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
		DMAEng:    DMA{Timing: timing},
		slots:     make([]slot, slotCount),
		Stats:     &Stats{PerOp: map[Op]*OpStat{}},
	}
	return c.withTables()
}

// NewCoprocessorChain builds a CKKS chain co-processor for one level of the
// modulus chain: the q rows are the chain prefix q_0..q_ℓ, the single p row
// is the keyswitch special prime p*, and basis is the level's gadget
// (digit) basis. In place of the BFV Lift/Scale engines it carries the
// Rescale datapath, and WordDecomp extends digits onto the p* row — the two
// dataflow differences between HPS scaling and CKKS rescaling on otherwise
// identical RPAU hardware.
func NewCoprocessorChain(qmods []ring.Modulus, pmod ring.Modulus, basis *rns.Basis,
	n int, pool *poly.Pool, timing Timing, slotCount int) (*Coprocessor, error) {

	kq := len(qmods)
	if kq == 0 {
		return nil, fmt.Errorf("hwsim: chain co-processor needs at least one q prime")
	}
	all := append(append([]ring.Modulus(nil), qmods...), pmod)
	c := &Coprocessor{
		Mods: all, KQ: kq, KP: 1, N: n,
		Timing:       timing,
		Pool:         pool,
		rescQ:        rns.NewRescaler(qmods),
		rescP:        rns.NewRescaler(all),
		Basis:        basis,
		extendDigits: true,
		DMAEng:       DMA{Timing: timing},
		slots:        make([]slot, slotCount),
		Stats:        &Stats{PerOp: map[Op]*OpStat{}},
	}
	return c.withTables()
}

// withTables builds every row's twiddle ROM and returns c.
func (c *Coprocessor) withTables() (*Coprocessor, error) {
	c.tables = make([]*poly.NTTTable, len(c.Mods))
	for j, m := range c.Mods {
		t, err := poly.NewNTTTable(m, c.N)
		if err != nil {
			return nil, err
		}
		c.tables[j] = t
	}
	return c, nil
}

// NumRPAUs returns the RPAU count (⌈13/2⌉ = 7 for the paper set). By the
// resource sharing of Sec. V-A1, RPAU i serves q_i and p_i: with kp = kq+1
// the last RPAU serves only the final p prime, and with kp = 1, the chain
// shape, RPAU 0 shares the special prime.
func (c *Coprocessor) NumRPAUs() int { return max(c.KQ, c.KP) }

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
		s.rows = make([]poly.Poly, c.KQ+c.KP)
		s.domain = make([]domainTag, c.KQ+c.KP)
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
// stays empty.
func (c *Coprocessor) wrow(s *slot, j int) poly.Poly {
	c.ensureRows(s)
	if s.rows[j].Coeffs == nil {
		s.rows[j] = poly.NewPoly(c.Mods[j], c.N)
	}
	return s.rows[j]
}

// rowHdrs returns n ≤ 2·(KQ+KP) row headers of co-processor-owned scratch —
// room for the widest instruction's input and output row sets side by side.
func (c *Coprocessor) rowHdrs(n int) []poly.Poly {
	if c.hdrs == nil {
		c.hdrs = make([]poly.Poly, 2*(c.KQ+c.KP))
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

// Reset zeroes the ledger in place: everyone holding the pointer — chain
// co-processors share one ledger — sees the cleared ledger, and a
// per-operation reset allocates no new map.
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
		// row — the digit is a small integer, so its residue mod p* is just
		// one more reduction pass through the same datapath.
		hi := c.KQ
		if c.extendDigits {
			hi = c.KQ + c.KP
		}
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
		if c.rescQ == nil {
			return 0, fmt.Errorf("hwsim: Rescale needs the chain co-processor")
		}
		// Batch Q divides by the top chain prime (rows 0..KQ → 0..KQ-1);
		// batch P divides the extended row set by the special prime
		// (rows 0..KQ+KP → 0..KQ) — the keyswitch ModDown. It is the exact
		// kernel the software evaluator runs, so hardware/software parity on
		// Rescale holds by construction.
		hi, resc := c.KQ, c.rescQ
		if in.Batch == BatchP {
			hi, resc = c.KQ+c.KP, c.rescP
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
