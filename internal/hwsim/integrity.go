package hwsim

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/ring"
)

// ErrIntegrity is the sentinel every integrity violation wraps; serving
// layers map it to the protocol's retryable integrity code so a clean
// replica can re-execute the operation.
var ErrIntegrity = errors.New("hwsim: ciphertext integrity violation")

// IntegrityError reports a fingerprint mismatch the checker could not repair
// by recomputation. It wraps ErrIntegrity.
type IntegrityError struct {
	Stage string // "read", "compute", "scrub"
	Op    Op     // instruction being verified (zero for scrub)
	Slot  int
	Row   int
}

func (e *IntegrityError) Error() string {
	if e.Stage == "scrub" {
		return fmt.Sprintf("hwsim: integrity scrub failed at slot %d row %d", e.Slot, e.Row)
	}
	return fmt.Sprintf("hwsim: %s-stage integrity check failed for %v at slot %d row %d",
		e.Stage, e.Op, e.Slot, e.Row)
}

func (e *IntegrityError) Unwrap() error { return ErrIntegrity }

// integrityChecker implements Freivalds-style verification over the memory
// file. Every resident residue row carries a fingerprint tag
//
//	fp(x) = Σ_i w_i·x_i  (mod q_j)
//
// with seeded nonzero weights w shared across rows: a random linear
// functional. A corrupted coefficient x'_k = x_k ± 2^b (or any in-range
// garble) shifts the fingerprint by w_k·Δ ≠ 0 mod q_j, so storage faults are
// caught at the next read with one pass instead of a full duplicate copy —
// the probabilistic check the paper's BRAM-resident residue layout admits.
//
// Compute results are verified against predictions derived from the operand
// fingerprints gathered in the same read pass (so slot aliasing in the
// scheduler is harmless):
//
//	CAdd/CSub: fp(dst) = fp(a) ± fp(b)          (linearity, O(1))
//	CMul/CMac: fp(dst) = Σ_i w_i·a_i·b_i (+fp)  (weighted inner product, O(n))
//	NTT/INTT:  round-trip through the checker's own independently built
//	           transform tables back to the input fingerprint
//
// A compute mismatch is repaired by restoring the pre-instruction snapshot
// and re-executing once (recompute-on-mismatch); a second mismatch, or any
// read/scrub mismatch, surfaces as an IntegrityError for the serving layer
// to retry on clean state.
type integrityChecker struct {
	// weights[p] and wShoup[p] are the fingerprint weights reduced mod prime
	// p of the co-processor's full row set with their Shoup constants, one
	// pair of n-vectors per prime.
	weights [][]uint64
	wShoup  [][]uint64
	// tables are the checker's own NTT tables, built independently of the
	// RPAUs' so a corrupted twiddle path cannot vouch for itself.
	tables []*poly.NTTTable
	// prime[j] is the prime residue row j holds: its index into weights and
	// tables. The identity, except on the chain co-processor below the top
	// level, whose last row holds p*.
	prime []int
	// buf is the round-trip scratch of the transform check, n words.
	buf []uint64
}

// newIntegrityChecker derives nonzero weights from seed and builds the
// reference transform tables.
func newIntegrityChecker(mods []ring.Modulus, n int, seed int64) (*integrityChecker, error) {
	ic := &integrityChecker{
		weights: make([][]uint64, len(mods)),
		wShoup:  make([][]uint64, len(mods)),
		tables:  make([]*poly.NTTTable, len(mods)),
		prime:   make([]int, len(mods)),
		buf:     make([]uint64, n),
	}
	raw := make([]uint64, n)
	rng := newSplitMix(uint64(seed))
	for i := range raw {
		raw[i] = rng.next()
	}
	for j, m := range mods {
		w := make([]uint64, n)
		ws := make([]uint64, n)
		for i, r := range raw {
			v := m.Reduce(r)
			if v == 0 {
				v = 1 // a zero weight would blind the check to coefficient i
			}
			w[i] = v
			ws[i] = m.ShoupPrecomp(v)
		}
		ic.weights[j] = w
		ic.wShoup[j] = ws
		t, err := poly.NewNTTTable(m, n)
		if err != nil {
			return nil, fmt.Errorf("hwsim: integrity tables for modulus %d: %w", m.Q, err)
		}
		ic.tables[j] = t
		ic.prime[j] = j
	}
	return ic, nil
}

// at maps the rows to the chain co-processor's level with kq chain rows:
// q_0..q_{kq-1}, then p*, the full row set's last prime.
func (ic *integrityChecker) at(kq int) {
	ic.prime = ic.prime[:kq+1]
	for j := range kq {
		ic.prime[j] = j
	}
	ic.prime[kq] = len(ic.weights) - 1
}

// splitMix is a tiny deterministic generator for weight derivation; it keeps
// the checker independent of math/rand's generator evolution.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed ^ 0x9e3779b97f4a7c15} }

func (s *splitMix) next() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fpSlice fingerprints a raw coefficient slice under prime j. MulShoup
// tolerates any 64-bit input, so even out-of-range (bit-flipped past q)
// words fingerprint deterministically — and differently from the original.
func (ic *integrityChecker) fpSlice(j int, coeffs []uint64, m ring.Modulus) uint64 {
	w, ws := ic.weights[ic.prime[j]], ic.wShoup[ic.prime[j]]
	var acc uint64
	for i, x := range coeffs {
		acc = m.Add(acc, m.MulShoup(x, w[i], ws[i]))
	}
	return acc
}

// fpInner fingerprints the pointwise product of two rows without
// materializing it: Σ w_i·a_i·b_i mod q.
func (ic *integrityChecker) fpInner(j int, a, b []uint64, m ring.Modulus) uint64 {
	w, ws := ic.weights[ic.prime[j]], ic.wShoup[ic.prime[j]]
	var acc uint64
	for i := range a {
		acc = m.Add(acc, m.MulShoup(m.Mul(a[i], b[i]), w[i], ws[i]))
	}
	return acc
}

// EnableIntegrity switches fingerprint verification on for this
// co-processor, deriving the check weights and reference transform tables
// from seed — for every prime of the full row set, so the chain
// co-processor's one seed serves every level. Call before loading data;
// existing slots are not retro-tagged.
func (c *Coprocessor) EnableIntegrity(seed int64) error {
	mods := c.Mods
	if c.chain != nil {
		mods = c.chain.Mods[len(c.chain.Mods)-1]
	}
	ic, err := newIntegrityChecker(mods, c.N, seed)
	if err != nil {
		return err
	}
	if c.chain != nil {
		ic.at(c.KQ)
	}
	c.integrity = ic
	return nil
}

// SetInjector attaches a fault injector; nil detaches. The injector is
// consulted once per instruction (BRAM and limb storage faults on operand
// rows, RPAU faults on verified compute) and once per memory-file load (DMA
// faults), so fault schedules are stable in instruction order.
func (c *Coprocessor) SetInjector(inj *faults.Injector) { c.injector = inj }

// SetMetrics attaches a registry for detection/recovery counters; nil-safe.
func (c *Coprocessor) SetMetrics(reg *obs.Registry) { c.metrics = reg }

func (c *Coprocessor) count(name string) {
	if c.metrics != nil {
		c.metrics.Counter(name).Add(1)
	}
}

// rowRef names one residue row of one slot.
type rowRef struct {
	slot uint8
	j    int
}

// instrAccessRows classifies the instruction's row-level reads and writes —
// the units of fingerprint verification and snapshot/restore — appending them
// to the caller's (recycled) slices.
func (c *Coprocessor) instrAccessRows(in Instr, reads, writes []rowRef) ([]rowRef, []rowRef) {
	lo, hi := c.batchRange(in.Batch)
	span := func(refs []rowRef, slot uint8, lo, hi int) []rowRef {
		for j := lo; j < hi; j++ {
			refs = append(refs, rowRef{slot, j})
		}
		return refs
	}
	switch in.Op {
	case OpNTT, OpINTT:
		return span(reads, in.A, lo, hi), span(writes, in.A, lo, hi)
	case OpCMul, OpCAdd, OpCSub:
		return span(span(reads, in.A, lo, hi), in.B, lo, hi), span(writes, in.Dst, lo, hi)
	case OpCMac:
		reads = span(span(reads, in.A, lo, hi), in.B, lo, hi)
		return span(reads, in.Dst, lo, hi), span(writes, in.Dst, lo, hi)
	case OpRearr:
		return span(reads, in.A, lo, hi), writes
	case OpDecomp:
		return span(reads, in.A, int(in.B), int(in.B)+1), span(writes, in.Dst, 0, c.digitRows())
	case OpLift:
		return span(reads, in.A, 0, c.KQ), span(writes, in.A, c.KQ, c.KQ+c.KP)
	case OpScale:
		return span(reads, in.A, 0, c.KQ+c.KP), span(writes, in.Dst, 0, c.KQ)
	case OpRescale:
		rHi := c.KQ
		if in.Batch == BatchP {
			rHi = c.KQ + c.KP
		}
		return span(reads, in.A, 0, rHi), span(writes, in.Dst, 0, rHi-1)
	}
	return reads, writes
}

// computeChecked reports whether the op's result is verified against a
// fingerprint prediction (the RPAU datapath ops). RPAU kill/stall faults are
// only injected on these, so every injected compute fault is detectable.
func computeChecked(op Op) bool {
	switch op {
	case OpNTT, OpINTT, OpCMul, OpCAdd, OpCSub, OpCMac:
		return true
	}
	return false
}

// preState carries the read-pass artifacts postExec verifies against, plus
// the snapshots recompute-on-mismatch restores. The co-processor keeps one
// (Coprocessor.guard) and every guarded instruction refills it, so the
// guarded path allocates only while these slices grow to their high-water
// mark.
type preState struct {
	reads, writes []rowRef
	// fpA/fpB/fpDst are operand fingerprints per batch row (index j-lo);
	// ipAB is the weighted inner product for CMul/CMac.
	fpA, fpB, fpDst, ipAB []uint64
	lo                    int
	// shadow[i]/snapDoms[i] are the pre-instruction image of written row i:
	// resident shadow rows, one per row of the widest write set. A row that
	// was empty has no image to keep — its tag alone restores it.
	shadow   [][]uint64
	snapDoms []domainTag
}

// fpBuf returns buf resized to n fingerprints.
func fpBuf(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// injectStorage fires due BRAM/limb faults into the instruction's operand
// rows. Corrupting exactly the rows the read pass is about to verify keeps
// the chaos invariant airtight: a fired storage fault is never masked by an
// overwrite before anything reads it.
func (c *Coprocessor) injectStorage(reads []rowRef) {
	if len(reads) == 0 {
		return
	}
	if f := c.injector.Opportunity(faults.ClassBRAM); f != nil {
		ref := reads[f.Pick(len(reads))]
		row := c.row(c.slotAt(ref.slot), ref.j)
		// One bit of one stored word flips. Residues are 32-bit words in
		// BRAM, so the flip stays within the stored word's width.
		row.Coeffs[f.Pick(len(row.Coeffs))] ^= 1 << uint(f.Pick(32))
	}
	if f := c.injector.Opportunity(faults.ClassLimb); f != nil {
		ref := reads[f.Pick(len(reads))]
		row := c.row(c.slotAt(ref.slot), ref.j)
		q := row.Mod.Q
		for i := range row.Coeffs {
			// In-range garble: the nastier case, invisible to range checks,
			// caught only by the fingerprint.
			row.Coeffs[i] = f.Word() % q
		}
	}
}

// injectRPAU fires a due RPAU fault after the instruction computed: kill
// garbles the written rows (postExec detects and recomputes), stall returns
// extra cycles (charged and counted as a watchdog detection).
func (c *Coprocessor) injectRPAU(in Instr, writes []rowRef) Cycles {
	if !computeChecked(in.Op) {
		return 0
	}
	f := c.injector.Opportunity(faults.ClassRPAU)
	if f == nil {
		return 0
	}
	if f.Mode == faults.ModeStall {
		stall := Cycles(f.StallCycles())
		// The instruction retired late but correct; the cycle watchdog
		// (actual vs. nominal latency) flags it.
		c.Stats.Total += stall
		c.Trace.CycleSpan("stall", uint64(stall))
		c.count("hw_integrity_stall_detected")
		return stall
	}
	if len(writes) > 0 {
		ref := writes[f.Pick(len(writes))]
		row := c.row(c.slotAt(ref.slot), ref.j)
		q := row.Mod.Q
		for i := range row.Coeffs {
			row.Coeffs[i] = f.Word() % q
		}
	}
	return 0
}

// preExec runs the read-side verification over ps.reads and gathers the
// compute-check inputs and recovery snapshots into ps. It returns an
// IntegrityError on a storage fingerprint mismatch.
func (c *Coprocessor) preExec(in Instr, ps *preState) error {
	ic := c.integrity
	if ic == nil {
		return nil
	}
	// Verify every row the instruction reads against its tag.
	for _, ref := range ps.reads {
		s := c.slotAt(ref.slot)
		row := c.row(s, ref.j)
		if s.tagged == nil || !s.tagged[ref.j] {
			continue
		}
		if ic.fpSlice(ref.j, row.Coeffs, row.Mod) != s.tags[ref.j] {
			c.count("hw_integrity_storage_detected")
			return &IntegrityError{Stage: "read", Op: in.Op, Slot: int(ref.slot), Row: ref.j}
		}
	}
	// Gather the prediction inputs for the compute check.
	if computeChecked(in.Op) {
		lo, hi := c.batchRange(in.Batch)
		ps.lo = lo
		sa := c.slotAt(in.A)
		switch in.Op {
		case OpNTT, OpINTT:
			ps.fpA = fpBuf(ps.fpA, hi-lo)
			for j := lo; j < hi; j++ {
				row := c.row(sa, j)
				ps.fpA[j-lo] = ic.fpSlice(j, row.Coeffs, row.Mod)
			}
		case OpCAdd, OpCSub:
			sb := c.slotAt(in.B)
			ps.fpA = fpBuf(ps.fpA, hi-lo)
			ps.fpB = fpBuf(ps.fpB, hi-lo)
			for j := lo; j < hi; j++ {
				a, b := c.row(sa, j), c.row(sb, j)
				ps.fpA[j-lo] = ic.fpSlice(j, a.Coeffs, a.Mod)
				ps.fpB[j-lo] = ic.fpSlice(j, b.Coeffs, b.Mod)
			}
		case OpCMul, OpCMac:
			sb := c.slotAt(in.B)
			ps.ipAB = fpBuf(ps.ipAB, hi-lo)
			for j := lo; j < hi; j++ {
				a, b := c.row(sa, j), c.row(sb, j)
				ps.ipAB[j-lo] = ic.fpInner(j, a.Coeffs, b.Coeffs, a.Mod)
			}
			if in.Op == OpCMac {
				sd := c.slotAt(in.Dst)
				ps.fpDst = fpBuf(ps.fpDst, hi-lo)
				for j := lo; j < hi; j++ {
					d := c.row(sd, j)
					ps.fpDst[j-lo] = ic.fpSlice(j, d.Coeffs, d.Mod)
				}
			}
		}
	}
	// Snapshot the rows (and domain tags) the instruction will overwrite, so
	// a compute mismatch can be repaired by restore + re-execute. Aliased
	// dst/operand slots are covered: restoring the dst image restores the
	// operand it aliases.
	ps.snapDoms = ps.snapDoms[:0]
	for i, ref := range ps.writes {
		s := c.slotAt(ref.slot)
		c.ensureRows(s)
		dom := s.domain[ref.j]
		ps.snapDoms = append(ps.snapDoms, dom)
		if dom == domEmpty {
			continue
		}
		for len(ps.shadow) <= i {
			ps.shadow = append(ps.shadow, make([]uint64, c.N))
		}
		copy(ps.shadow[i], s.rows[ref.j].Coeffs)
	}
	return nil
}

// postExec verifies the instruction's output against the prediction from the
// read pass. It returns false on a mismatch (recompute candidate).
func (c *Coprocessor) postExec(in Instr, ps *preState) bool {
	ic := c.integrity
	if ic == nil || !computeChecked(in.Op) {
		return true
	}
	lo, hi := c.batchRange(in.Batch)
	switch in.Op {
	case OpNTT, OpINTT:
		// Round-trip through the checker's own tables back to the input
		// fingerprint: out must invert to exactly the data that went in.
		s := c.slotAt(in.A)
		buf := ic.buf
		for j := lo; j < hi; j++ {
			row := c.row(s, j)
			copy(buf, row.Coeffs)
			if in.Op == OpNTT {
				ic.tables[ic.prime[j]].Inverse(buf)
			} else {
				ic.tables[ic.prime[j]].Forward(buf)
			}
			if ic.fpSlice(j, buf, row.Mod) != ps.fpA[j-lo] {
				return false
			}
		}
	case OpCAdd, OpCSub, OpCMul, OpCMac:
		sd := c.slotAt(in.Dst)
		for j := lo; j < hi; j++ {
			d := c.row(sd, j)
			m := d.Mod
			var want uint64
			switch in.Op {
			case OpCAdd:
				want = m.Add(ps.fpA[j-lo], ps.fpB[j-lo])
			case OpCSub:
				want = m.Sub(ps.fpA[j-lo], ps.fpB[j-lo])
			case OpCMul:
				want = ps.ipAB[j-lo]
			case OpCMac:
				want = m.Add(ps.fpDst[j-lo], ps.ipAB[j-lo])
			}
			if ic.fpSlice(j, d.Coeffs, m) != want {
				return false
			}
		}
	}
	return true
}

// restore rewinds the written rows and their domain tags to the
// pre-instruction snapshot.
func (c *Coprocessor) restore(ps *preState) {
	for i, ref := range ps.writes {
		s := c.slotAt(ref.slot)
		if ps.snapDoms[i] != domEmpty {
			copy(s.rows[ref.j].Coeffs, ps.shadow[i])
		}
		s.domain[ref.j] = ps.snapDoms[i]
	}
}

// writeTags re-fingerprints the rows the instruction wrote. Tag maintenance
// happens only after verification passed, so tags always describe data the
// checker has vouched for (or host-computed data it trusts by construction).
func (c *Coprocessor) writeTags(refs []rowRef) {
	ic := c.integrity
	if ic == nil {
		return
	}
	for _, ref := range refs {
		s := c.slotAt(ref.slot)
		c.ensureTags(s)
		row := c.row(s, ref.j)
		s.tags[ref.j] = ic.fpSlice(ref.j, row.Coeffs, row.Mod)
		s.tagged[ref.j] = true
	}
}

func (c *Coprocessor) ensureTags(s *slot) {
	if s.tags == nil {
		s.tags = make([]uint64, c.width)
		s.tagged = make([]bool, c.width)
	}
}

// vouchRows fingerprints any still-untagged row the instruction is about to
// read. Rows can legitimately exist without a tag — lazily materialized
// zero rows, e.g. a relinearization accumulator before its first CMac — and
// an untagged read row would be a verification blind spot: a storage fault
// injected there would skip the read check AND be folded into the compute
// prediction, producing a vouched-for wrong result (the chaos harness found
// exactly this). Vouching runs before fault injection, so tags always
// describe pre-fault data.
func (c *Coprocessor) vouchRows(refs []rowRef) {
	ic := c.integrity
	if ic == nil {
		return
	}
	for _, ref := range refs {
		s := c.slotAt(ref.slot)
		c.ensureTags(s)
		if s.tagged[ref.j] {
			continue
		}
		row := c.row(s, ref.j)
		s.tags[ref.j] = ic.fpSlice(ref.j, row.Coeffs, row.Mod)
		s.tagged[ref.j] = true
	}
}

// execGuarded is the instrumented instruction path: storage-fault injection,
// read verification, execution, RPAU-fault injection, compute verification
// with one recompute-on-mismatch, and tag maintenance. It only runs when an
// injector or the checker is attached; the fast path costs two nil checks.
func (c *Coprocessor) execGuarded(in Instr) (Cycles, error) {
	ps := &c.guard
	ps.reads, ps.writes = c.instrAccessRows(in, ps.reads[:0], ps.writes[:0])
	c.vouchRows(ps.reads)
	c.injectStorage(ps.reads)
	if err := c.preExec(in, ps); err != nil {
		return 0, err
	}
	cyc, err := c.execOp(in)
	if err != nil {
		return cyc, err
	}
	cyc += c.injectRPAU(in, ps.writes)
	if !c.postExec(in, ps) {
		c.count("hw_integrity_compute_detected")
		// Recompute-on-mismatch: rewind the written rows and re-issue the
		// instruction once. The re-execution's cycles and stats accumulate —
		// recovery is not free, and the accounting shows it.
		c.restore(ps)
		rcyc, rerr := c.execOp(in)
		cyc += rcyc
		if rerr != nil {
			return cyc, rerr
		}
		if !c.postExec(in, ps) {
			return cyc, &IntegrityError{Stage: "compute", Op: in.Op, Slot: int(in.Dst)}
		}
		c.count("hw_integrity_recompute_ok")
	}
	c.writeTags(ps.writes)
	return cyc, nil
}

// Scrub verifies every tagged row of the memory file — the end-of-operation
// sweep the scheduler runs before results (or host-visible intermediates)
// are read back, so corruption of rows nothing re-read still surfaces as a
// typed error instead of a wrong ciphertext.
func (c *Coprocessor) Scrub() error {
	ic := c.integrity
	if ic == nil {
		return nil
	}
	for si := range c.slots {
		s := &c.slots[si]
		for j, t := range s.tagged {
			if t && ic.fpSlice(j, s.rows[j].Coeffs, s.rows[j].Mod) != s.tags[j] {
				c.count("hw_integrity_scrub_detected")
				return &IntegrityError{Stage: "scrub", Slot: si, Row: j}
			}
		}
	}
	return nil
}
