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
		p, s := setupConfig(t, fv.PaperConfig(2), hwsim.VariantHPS)
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
			_, cyc, err := s.Mul(operands[set], operands[1-set], rk)
			return cyc, err
		})
	})
	t.Run("CKKS Mul+Rescale", func(t *testing.T) {
		c := newCKKSTestContextConfig(t, ckks.PaperConfig())
		operands := []*ckks.Ciphertext{c.encryptRange(t, 3), c.encryptRange(t, 7), c.encryptRange(t, 11)}
		predictedRuns(t, &c.hw.machine, c.hw.Stats, 801134, func(set int) (hwsim.Cycles, error) {
			_, cyc, err := c.hw.MulRescale(operands[set], operands[set+1], c.rk)
			return cyc, err
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
