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
// is what Exec charged it, the entries plus the DMA steps are everything the
// ledger charged, and both runs cost the same compute cycles (their value is
// a row of BENCH_sim.json).
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
		predictedRuns(t, &s.machine, s.C.Stats, func(set int) (hwsim.Cycles, error) {
			_, rep, err := s.Mul(operands[set], operands[1-set], rk)
			return rep.ComputeCycles, err
		})
	})
	t.Run("CKKS Mul+Rescale", func(t *testing.T) {
		c := newCKKSTestContextConfig(t, ckks.PaperConfig())
		operands := []*ckks.Ciphertext{c.encryptRange(t, 3), c.encryptRange(t, 7), c.encryptRange(t, 11)}
		predictedRuns(t, &c.hw.machine, c.hw.Stats, func(set int) (hwsim.Cycles, error) {
			_, rep, err := c.hw.MulRescale(operands[set], operands[set+1], c.rk)
			return rep.ComputeCycles, err
		})
	})
}

// predictedRuns runs op on operand sets 0 and 1 and checks both recorded
// traces against the cost table read off the first listing.
func predictedRuns(t *testing.T, m *machine, ledger *hwsim.Stats, op func(set int) (hwsim.Cycles, error)) {
	t.Helper()
	m.Record = true
	var listing []Task
	var want []hwsim.Cycles
	var first hwsim.Cycles
	for set := 0; set < 2; set++ {
		m.Trace = m.Trace[:0]
		before := ledger.Total
		cyc, err := op(set)
		if err != nil {
			t.Fatal(err)
		}
		if set == 1 && cyc != first {
			t.Fatalf("operand set 1: %d compute cycles, operand set 0 cost %d", cyc, first)
		}
		if set == 0 {
			first = cyc
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

// TestTraditionalMulPriced checks the Sec. VI-C price of the traditional
// Mult: the HPS Mult's report with its 4 Lift and 3 Scale re-priced on four
// traditional cores and its relinearization cut to the positional key's two
// digits (ℓ 6 → 2 at the paper set, 3 → 2 at TestConfig(2)). The transfers
// are the HPS Mult's and only the compute moves; both compute figures, the
// same an executed traditional co-processor charged for the program, are
// rows of BENCH_sim.json.
func TestTraditionalMulPriced(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  fv.Config
	}{
		{"paper", fv.PaperConfig(2)},
		{"test", fv.TestConfig(2)},
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
		if d := s.tradRelinDigits(); d != 2 {
			t.Fatalf("%s set: traditional relin key of %d digits, want 2", c.name, d)
		}
		got := s.TraditionalMul(rep)
		if got.SendCycles != rep.SendCycles || got.ReceiveCycles != rep.ReceiveCycles || got.KeyLoadCycles != rep.KeyLoadCycles {
			t.Fatalf("%s set: traditional Mult priced %+v, transfers differ from the HPS Mult's %+v", c.name, got, rep)
		}
		if got.ComputeCycles <= rep.ComputeCycles {
			t.Fatalf("%s set: traditional Mult priced %d compute cycles, no more than the HPS Mult's %d", c.name, got.ComputeCycles, rep.ComputeCycles)
		}
	}
}
