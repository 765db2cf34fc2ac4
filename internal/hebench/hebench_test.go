package hebench

import (
	"strings"
	"testing"

	"repro/internal/fv"
)

// smallSuite exercises the harness on the fast test configuration; the
// paper-set deviations are asserted in TestPaperDeviations below (guarded by
// -short) and recorded in EXPERIMENTS.md.
func smallSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(fv.TestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// row looks a table line up by name: a renamed, moved or dropped row fails
// the test instead of letting an index read its neighbour.
func row(t *testing.T, tb Table, name string) Row {
	t.Helper()
	for _, r := range tb.Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("%s has no row %q", tb.ID, name)
	return Row{}
}

func TestAllTablesRenderOnSmallSet(t *testing.T) {
	s := smallSuite(t)
	tables, err := s.AllTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 8 {
		t.Fatalf("expected 8 tables, got %d", len(tables))
	}
	var sb strings.Builder
	if err := s.RenderAll(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV",
		"Table V", "Sec. VI-C", "Sec. VI-E", "Ablations", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s has no rows", tb.ID)
		}
	}
}

func TestRowDeviation(t *testing.T) {
	r := Row{Paper: 100, Measured: 93}
	if got := r.DeviationPct(); got != -7 {
		t.Fatalf("deviation = %f, want -7", got)
	}
	if (Row{Measured: 5}).DeviationPct() != 0 {
		t.Fatal("rows without paper values should report 0 deviation")
	}
}

// TestPaperDeviations asserts the headline reproduction quality on the real
// paper parameter set: every Table I/II row within 20%, and the qualitative
// claims (ordering in Table III, <2x traditional slowdown, ≥13x software
// speedup at paper constants) hold.
func TestPaperDeviations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite is expensive")
	}
	s, err := PaperSuite()
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.TableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t1.Rows {
		if r.Paper == 0 {
			continue
		}
		if d := r.DeviationPct(); d < -20 || d > 20 {
			t.Errorf("Table I %q deviates %+.0f%%", r.Name, d)
		}
	}
	t2, err := s.TableII()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t2.Rows {
		if r.Paper == 0 || strings.Contains(r.Name, "Addition (# calls)") {
			continue // the CADD count difference is documented
		}
		if d := r.DeviationPct(); d < -20 || d > 20 {
			t.Errorf("Table II %q deviates %+.0f%%", r.Name, d)
		}
	}
	t3 := s.TableIII()
	if !(t3.Rows[0].Measured < t3.Rows[1].Measured && t3.Rows[1].Measured < t3.Rows[2].Measured) {
		t.Error("Table III ordering broken")
	}
	tn, err := s.TableNoHPS()
	if err != nil {
		t.Fatal(err)
	}
	slowdown := row(t, tn, "Slowdown vs HPS architecture").Measured
	if slowdown <= 1 || slowdown >= 2 {
		t.Errorf("traditional slowdown %.2fx, paper says 'less than 2x slower' (and > 1x)", slowdown)
	}
	tc, err := s.Comparison()
	if err != nil {
		t.Fatal(err)
	}
	if speedup := row(t, tc, "Speedup vs FV-NFLlib on i5 (33 ms)").Measured; speedup < 13 {
		t.Errorf("speedup vs the paper's software baseline is %.1fx, paper reports over 13x", speedup)
	}
}

// TestTwoCoprocessorsServeTwiceTheMults is the paper's Sec. VI-A claim read
// off the engine that serves: the same four-Mult program on a two-worker and
// a one-worker engine finishes in makespans of exact ratio 2 once the key
// prologue is taken out, each rate is workers over the compute time of one
// Mult on the suite's co-processor, and all four results are the software
// evaluator's, bit for bit.
func TestTwoCoprocessorsServeTwiceTheMults(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite is expensive")
	}
	s, err := PaperSuite()
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := s.HW.Mul(s.CtA, s.CtB, s.RK)
	if err != nil {
		t.Fatal(err)
	}
	want := fv.NewEvaluator(s.Params).Mul(s.CtA, s.CtB, s.RK)
	rates := map[int]float64{}
	for _, workers := range []int{1, paperCoprocs} {
		outs, rate, err := s.servedMults(workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 4 {
			t.Fatalf("%d workers: %d outputs, want 4", workers, len(outs))
		}
		for i, out := range outs {
			if !out.Equal(want) {
				t.Errorf("%d workers: output %d differs from fv.Evaluator.Mul", workers, i)
			}
		}
		if closed := float64(workers) / rep.ComputeSeconds(); rate != closed {
			t.Errorf("%d workers: %.6f Mult/s from the engine, %.6f = workers / ComputeSeconds of one Mult", workers, rate, closed)
		}
		rates[workers] = rate
	}
	if ratio := rates[paperCoprocs] / rates[1]; ratio != 2 {
		t.Errorf("2 vs 1 co-processors: makespan ratio %.6f, want exactly 2", ratio)
	}
	t.Logf("%.3f Mult/s on two co-processors, %.3f on one", rates[paperCoprocs], rates[1])
}

// TestPaperScaleBitExactness runs a full n = 4096 multiplication on the
// simulated co-processor and compares it bit for bit against the software
// evaluator — the functional-correctness keystone at the paper's real size.
func TestPaperScaleBitExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite is expensive")
	}
	s, err := PaperSuite()
	if err != nil {
		t.Fatal(err)
	}
	hw, _, err := s.HW.Mul(s.CtA, s.CtB, s.RK)
	if err != nil {
		t.Fatal(err)
	}
	sw := fv.NewEvaluator(s.Params).Mul(s.CtA, s.CtB, s.RK)
	if !hw.Equal(sw) {
		t.Fatal("simulated hardware Mult differs from software at paper scale")
	}
	// And it decrypts to the plaintext product of the suite's operands.
	dec := fv.NewDecryptor(s.Params, s.SK)
	if got := dec.Decrypt(hw); got.Coeffs[0] != dec.Decrypt(sw).Coeffs[0] {
		t.Fatal("decryption mismatch")
	}
}
