package hwsim

import (
	"errors"
	"fmt"

	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/rns"
)

// ErrAccumulatorLive refuses a key-switch digit loop whose accumulators hold
// data at entry: the loop sums into them from zero.
var ErrAccumulatorLive = errors.New("hwsim: key-switch accumulator not empty at entry")

// KeySwitch is the key-switch digit loop of the paper's ReLin datapath
// (Fig. 2) — relinearization, rotation and the CKKS hybrid switch are this
// loop with a different source and key. One gadget digit at a time,
// WordDecomp extracts it from Src and the RPAUs transform it; then per
// accumulator the key component streams in from DDR (Table I: "Only during
// the relinearization steps, data transfer is needed to load the large
// relinearization keys") and a CMul + CAdd per batch multiply-accumulates
// it. The listing is written once (each): Coprocessor.KeySwitch executes it
// and DigitCycles prices it.
type KeySwitch struct {
	// Src is the coefficient-domain slot the digits are extracted from.
	Src uint8
	// Digit, Sop and Key are the loop's scratch — the current digit, its
	// product with a key component, and the streamed component. They are
	// dead when the loop ends.
	Digit, Sop, Key uint8
	// Acc are the two accumulators: empty at entry, Σ NTT(d_i)·Keys[k][i]
	// in the NTT domain at exit.
	Acc [2]uint8
	// Keys[k][i] is the NTT-domain key component digit i multiplies into
	// Acc[k]; len(Keys[0]) is the digit count.
	Keys [2][]poly.RNSPoly
	// Batches the digit, key and accumulators span, each at most once.
	Batches []Batch
	// Stream is one key component's DMA.
	Stream Transfer
}

// loopStep is one step of the listing: an instruction, or (dma) the stream
// of key component Keys[acc][digit] into the Key slot.
type loopStep struct {
	in         Instr
	dma        bool
	digit, acc int
}

// each calls f on every step of digit i's pass, in issue order: WordDecomp,
// the digit's NTT per batch, then per accumulator the key DMA and a CMul +
// CAdd per batch. It stops at the first error f returns.
func (ks *KeySwitch) each(i int, f func(loopStep) error) error {
	if err := f(loopStep{in: Instr{Op: OpDecomp, Dst: ks.Digit, A: ks.Src, B: uint8(i)}}); err != nil {
		return err
	}
	for _, b := range ks.Batches {
		if err := f(loopStep{in: Instr{Op: OpNTT, A: ks.Digit, Batch: b}}); err != nil {
			return err
		}
	}
	for k, acc := range ks.Acc {
		if err := f(loopStep{dma: true, digit: i, acc: k}); err != nil {
			return err
		}
		for _, b := range ks.Batches {
			if err := f(loopStep{in: Instr{Op: OpCMul, Dst: ks.Sop, A: ks.Digit, B: ks.Key, Batch: b}}); err != nil {
				return err
			}
			if err := f(loopStep{in: Instr{Op: OpCAdd, Dst: acc, A: acc, B: ks.Sop, Batch: b}}); err != nil {
				return err
			}
		}
	}
	return nil
}

// DigitCycles prices one digit's pass of the loop off the cost table,
// executing nothing: the cycles KeySwitch charges per digit.
func (c *Coprocessor) DigitCycles(ks KeySwitch) Cycles {
	var total Cycles
	ks.each(0, func(st loopStep) error {
		if st.dma {
			total += c.DMAEng.FPGACycles(ks.Stream)
		} else {
			total += c.Cycles(st.in)
		}
		return nil
	})
	return total
}

// KeySwitch runs the digit loop over every digit of ks.Keys, by the rule
// Exec dispatches on. With the checker or an injector attached it issues the
// listing step by step — Exec, LoadSlot, Transfer — so every instruction is
// fingerprinted and every step is a fault opportunity, as in any other
// program. Without, it charges every step as Exec and Transfer would, in the
// same order, and then computes both accumulators in one fused pass over the
// rows that reads the keys where they lie. Both leave the same accumulators
// and charge the same ledger and cycle trace; with trace non-nil both append
// each step's Task to it. The loop is validated first, so a refused loop
// charges nothing and writes nothing.
func (c *Coprocessor) KeySwitch(ks KeySwitch, trace *[]Task) error {
	if err := c.checkKeySwitch(&ks); err != nil {
		return err
	}
	if c.Fused() {
		c.walk(&ks, trace, func(st loopStep) (Cycles, error) {
			if st.dma {
				return c.Transfer(ks.Stream), nil
			}
			return c.charge(st.in), nil
		})
		c.fusedSoP(&ks)
		return nil
	}
	return c.walk(&ks, trace, func(st loopStep) (Cycles, error) {
		if st.dma {
			c.LoadSlotNTT(ks.Key, 0, ks.Keys[st.acc][st.digit].Rows)
			return c.Transfer(ks.Stream), nil
		}
		return c.Exec(st.in)
	})
}

// walk runs step over the whole listing, appending each retired step's Task
// to *trace when trace is non-nil.
func (c *Coprocessor) walk(ks *KeySwitch, trace *[]Task, step func(loopStep) (Cycles, error)) error {
	for i := range ks.Keys[0] {
		err := ks.each(i, func(st loopStep) error {
			cyc, err := step(st)
			if err != nil || trace == nil {
				return err
			}
			if st.dma {
				*trace = append(*trace, ks.Stream.Task(cyc, nil, []uint8{ks.Key}))
			} else {
				*trace = append(*trace, st.in.Task(cyc))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkKeySwitch refuses a loop either executor would fail or compute
// garbage on: key halves of unequal length or more digits than q rows,
// slots shared between roles, batches repeated, a digit row of Src not in
// the coefficient domain (WordDecomp's own check), a key component of
// another shape than LoadSlot accepts or not covering the batches, and an
// accumulator row that is not empty (ErrAccumulatorLive).
func (c *Coprocessor) checkKeySwitch(ks *KeySwitch) error {
	k := len(ks.Keys[0])
	if len(ks.Keys[1]) != k {
		return fmt.Errorf("hwsim: key switch with %d+%d key components", k, len(ks.Keys[1]))
	}
	if k > c.KQ {
		return fmt.Errorf("hwsim: key switch over %d digits, the row set has %d q rows", k, c.KQ)
	}
	slots := [...]uint8{ks.Src, ks.Digit, ks.Sop, ks.Key, ks.Acc[0], ks.Acc[1]}
	for a, s := range slots {
		c.slotAt(s)
		for _, t := range slots[a+1:] {
			if s == t {
				return fmt.Errorf("hwsim: key switch uses slot %d twice", s)
			}
		}
	}
	src := c.slotAt(ks.Src)
	c.ensureRows(src)
	for i := range k {
		if src.domain[i] != domCoeff {
			return fmt.Errorf("hwsim: Decomp needs coefficient-domain input (slot %d row %d)", ks.Src, i)
		}
	}
	rows := 0
	for a, b := range ks.Batches {
		if b > BatchP || (a == 1 && b == ks.Batches[0]) || a > 1 {
			return fmt.Errorf("hwsim: key switch over batches %v", ks.Batches)
		}
		lo, hi := c.batchRange(b)
		rows = max(rows, hi)
		for _, acc := range ks.Acc {
			s := c.slotAt(acc)
			c.ensureRows(s)
			for j := lo; j < hi; j++ {
				if d := s.domain[j]; d != domEmpty && d != domZero {
					return fmt.Errorf("%w (slot %d row %d)", ErrAccumulatorLive, acc, j)
				}
			}
		}
	}
	for _, half := range ks.Keys {
		for i, key := range half {
			if len(key.Rows) < rows || len(key.Rows) > c.KQ+c.KP {
				return fmt.Errorf("hwsim: key component %d has %d rows, the loop spans %d of %d", i, len(key.Rows), rows, c.KQ+c.KP)
			}
			for j, r := range key.Rows {
				if r.Mod.Q != c.Mods[j].Q || len(r.Coeffs) != c.N {
					return fmt.Errorf("hwsim: key component %d row %d does not match the row set", i, j)
				}
			}
		}
	}
	return nil
}

// sopTask is the fused executor's row task, resident on the co-processor:
// index r is residue row j = row(r) of both accumulators, rlwe.SoPRow over
// the digit streams.
type sopTask struct {
	keys       [2][]poly.RNSPoly
	tables     []*poly.NTTTable
	streams    []poly.Poly // digit i's stream x_i·q̃_i mod q_i, the Sop slot's row i
	buf        []poly.Poly // row j's transformed digit, the Digit slot's row j
	acc0, acc1 []poly.Poly
	raw        bool
	// The batches' row ranges: [lo0, lo0+n0) then [lo1, …).
	lo0, n0, lo1 int
}

func (t *sopTask) row(r int) int {
	if r < t.n0 {
		return t.lo0 + r
	}
	return t.lo1 + r - t.n0
}

func (t *sopTask) RunIndex(r int) {
	j := t.row(r)
	rlwe.SoPRow(t.tables[j], t.raw, t, t.keys[0], t.keys[1], j, t.acc0[j].Coeffs, t.acc1[j].Coeffs)
}

// NTTDigit transforms digit i's row j into the Digit slot's row j straight
// from the digit stream: the stream is below q_i, so below 2·q_j wherever
// q_i ≤ 2·q_j (every pair at both paper sets), which ForwardFromInto takes
// as is; elsewhere the row is replicated first, as WordDecomp does.
func (t *sopTask) NTTDigit(tab *poly.NTTTable, i, j int) []uint64 {
	buf, d := t.buf[j].Coeffs, t.streams[i]
	if d.Mod.Q <= 2*tab.Mod.Q {
		tab.ForwardFromInto(buf, d.Coeffs)
	} else {
		rns.ReplicateDigitInto(tab.Mod, buf, d.Coeffs, d.Mod.Q)
		tab.Forward(buf)
	}
	return buf
}

// fusedSoP computes what the listing computes, for a loop checkKeySwitch
// accepted: the digit streams — WordDecomp's scalar product, once per digit —
// into the dead Sop slot, then one Pool pass over the batches' rows, each
// transforming every digit's row and multiply-accumulating it against the
// key rows in place. The accumulator rows end in the NTT domain, bit for bit
// the CMul + CAdd sums; the scratch slots end empty.
func (c *Coprocessor) fusedSoP(ks *KeySwitch) {
	k := len(ks.Keys[0])
	if k == 0 {
		return
	}
	src, sop, dig := c.slotAt(ks.Src), c.slotAt(ks.Sop), c.slotAt(ks.Digit)
	a0, a1 := c.slotAt(ks.Acc[0]), c.slotAt(ks.Acc[1])
	for i := range k {
		m := c.Mods[i]
		qTilde := c.Basis.QTilde[i]
		m.VecScalarMulShoupInto(c.wrow(sop, i).Coeffs, src.rows[i].Coeffs, qTilde, m.ShoupPrecomp(qTilde))
	}
	t := &c.sop
	t.keys, t.tables, t.raw = ks.Keys, c.tables, rlwe.RawSoPSafe(c.Mods, k)
	n := 0
	for a, b := range ks.Batches {
		lo, hi := c.batchRange(b)
		for j := lo; j < hi; j++ {
			c.wrow(dig, j)
			c.wrow(a0, j)
			c.wrow(a1, j)
			a0.domain[j], a1.domain[j] = domNTT, domNTT
		}
		if a == 0 {
			t.lo0, t.n0 = lo, hi-lo
		} else {
			t.lo1 = lo
		}
		n += hi - lo
	}
	t.streams, t.buf, t.acc0, t.acc1 = sop.rows, dig.rows, a0.rows, a1.rows
	c.Pool.RunTask(c.N*n, n, t)
	t.keys = [2][]poly.RNSPoly{}
	for _, s := range []*slot{sop, dig, c.slotAt(ks.Key)} {
		clear(s.domain)
	}
}
