package sched

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// TestCyclesPredictTheTrace holds the property the cost table exists for: an
// instruction's cycles are a function of the instruction and the
// co-processor's shape, never of the data. The paper-set BFV Mult and CKKS
// Mul+Rescale each run on two operand sets with the trace recorded; the
// listings are identical, every instruction's hwsim.Coprocessor.Cycles entry
// — read off the first run's listing, so before the second run executes it —
// is what Exec charged it, and the entries plus the DMA steps are everything
// the ledger charged, the pinned 829918 and 801134 among it.
func TestCyclesPredictTheTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	t.Run("BFV Mult", func(t *testing.T) {
		p, s := setupConfig(t, fv.PaperConfig(2))
		prng := sampler.NewPRNG(2019)
		_, pk, rk := fv.NewKeyGenerator(p, prng).GenKeys()
		enc := fv.NewEncryptor(p, pk, prng)
		operands := make([]*fv.Ciphertext, 2)
		for i := range operands {
			pt := fv.NewPlaintext(p)
			pt.Coeffs[0], pt.Coeffs[7] = uint64(i), 1
			operands[i] = enc.Encrypt(pt)
		}
		predictedRuns(t, &s.machine, s.C.Stats, 829918, func(set int) (hwsim.Cycles, error) {
			_, rep, err := s.Mul(operands[set], operands[1-set], rk)
			return rep.ComputeCycles, err
		})
	})
	t.Run("CKKS Mul+Rescale", func(t *testing.T) {
		c := newCKKSTestContextConfig(t, ckks.PaperConfig())
		operands := []*ckks.Ciphertext{c.encryptRange(t, 3), c.encryptRange(t, 7), c.encryptRange(t, 11)}
		predictedRuns(t, &c.hw.machine, c.hw.Stats, 801134, func(set int) (hwsim.Cycles, error) {
			_, rep, err := c.hw.MulRescale(operands[set], operands[set+1], c.rk)
			return rep.ComputeCycles, err
		})
	})
}

// predictedRuns runs op on operand sets 0 and 1 and checks both recorded
// traces against the cost table read off the first listing.
func predictedRuns(t *testing.T, m *machine, ledger *hwsim.Stats, pin hwsim.Cycles, op func(set int) (hwsim.Cycles, error)) {
	t.Helper()
	m.Record = true
	var listing []Task
	var want []hwsim.Cycles
	for set := 0; set < 2; set++ {
		m.Trace = m.Trace[:0]
		before := ledger.Total
		cyc, err := op(set)
		if err != nil {
			t.Fatal(err)
		}
		if cyc != pin {
			t.Fatalf("operand set %d: %d compute cycles, pinned %d", set, cyc, pin)
		}
		if set == 0 {
			listing = append(listing, m.Trace...)
			for _, task := range listing {
				if task.Unit == UnitDMA {
					want = append(want, task.Cycles)
					continue
				}
				prog, err := hwsim.Assemble(task.Label)
				if err != nil || len(prog.Steps) != 1 {
					t.Fatalf("listing line %q does not re-assemble: %v", task.Label, err)
				}
				want = append(want, m.C.Cycles(*prog.Steps[0].Instr))
			}
		}
		if len(m.Trace) != len(listing) {
			t.Fatalf("operand set %d: %d steps, the first set ran %d", set, len(m.Trace), len(listing))
		}
		var sum hwsim.Cycles
		for i, task := range m.Trace {
			if task.Label != listing[i].Label {
				t.Fatalf("operand set %d step %d: %q, the first set ran %q", set, i, task.Label, listing[i].Label)
			}
			if task.Cycles != want[i] {
				t.Fatalf("operand set %d step %d (%s): Exec charged %d, the table says %d", set, i, task.Label, task.Cycles, want[i])
			}
			sum += want[i]
		}
		if moved := ledger.Total - before; sum != moved {
			t.Fatalf("operand set %d: the table's entries sum to %d, the ledger moved %d", set, sum, moved)
		}
	}
}

// TestTraditionalMulPriced pins the Sec. VI-C price of the traditional
// Mult: the HPS Mult's report with its 4 Lift and 3 Scale re-priced on four
// traditional cores and its relinearization cut to the positional key's two
// digits. 1 580 686 cycles at the paper set (ℓ 6 → 2) and 128 538 at
// TestConfig(2) (ℓ 3 → 2) are what an executed traditional co-processor
// charged for the same program; the transfers are the HPS Mult's.
func TestTraditionalMulPriced(t *testing.T) {
	for _, c := range []struct {
		name      string
		cfg       fv.Config
		hps, trad Report
	}{
		{"paper", fv.PaperConfig(2),
			Report{ComputeCycles: 829918, SendCycles: 60025, ReceiveCycles: 30145},
			Report{ComputeCycles: 1580686, SendCycles: 60025, ReceiveCycles: 30145}},
		{"test", fv.TestConfig(2),
			Report{ComputeCycles: 115782, SendCycles: 2133, ReceiveCycles: 1199},
			Report{ComputeCycles: 128538, SendCycles: 2133, ReceiveCycles: 1199}},
	} {
		if c.name == "paper" && testing.Short() {
			continue
		}
		p, s := setupConfig(t, c.cfg)
		prng := sampler.NewPRNG(2019)
		_, pk, rk := fv.NewKeyGenerator(p, prng).GenKeys()
		ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))
		_, rep, err := s.Mul(ct, ct, rk)
		if err != nil {
			t.Fatal(err)
		}
		if rep != c.hps {
			t.Fatalf("%s set: HPS Mult %+v, want %+v", c.name, rep, c.hps)
		}
		if d := s.tradRelinDigits(); d != 2 {
			t.Fatalf("%s set: traditional relin key of %d digits, want 2", c.name, d)
		}
		if got := s.TraditionalMul(rep); got != c.trad {
			t.Fatalf("%s set: traditional Mult priced %+v, want %+v", c.name, got, c.trad)
		}
	}
}
