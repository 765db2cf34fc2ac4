package hebench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fv"
)

// smallSuite is the suite on the fast test configuration, built once per
// test process; the paper-set deviations are asserted in
// TestPaperDeviations below (guarded by -short) and recorded in
// EXPERIMENTS.md.
func smallSuite(t *testing.T) *Suite {
	t.Helper()
	return once("small suite", func() *Suite {
		s, err := NewSuite(fv.TestConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
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
	if again, _ := s.AllTables(); &again[0] != &tables[0] {
		t.Error("AllTables ran twice on one suite")
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
// speedup at paper constants) hold. Sec. VI-A's rate, counted as the paper
// counts, is within 10% of its 400 Mult/s and follows from Table I's Mult,
// send and receive rows alone.
func TestPaperDeviations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite is expensive")
	}
	s, err := PaperSuite()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := s.AllTables()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Table{}
	for _, tb := range tables {
		byID[tb.ID] = tb
	}
	t1 := byID["Table I"]
	for _, r := range t1.Rows {
		if r.Paper == 0 {
			continue
		}
		if d := r.DeviationPct(); d < -20 || d > 20 {
			t.Errorf("Table I %q deviates %+.0f%%", r.Name, d)
		}
	}
	for _, r := range byID["Table II"].Rows {
		if r.Paper == 0 || strings.Contains(r.Name, "Addition (# calls)") {
			continue // the CADD count difference is documented
		}
		if d := r.DeviationPct(); d < -20 || d > 20 {
			t.Errorf("Table II %q deviates %+.0f%%", r.Name, d)
		}
	}
	t3 := byID["Table III"]
	if !(t3.Rows[0].Measured < t3.Rows[1].Measured && t3.Rows[1].Measured < t3.Rows[2].Measured) {
		t.Error("Table III ordering broken")
	}
	slowdown := row(t, byID["Sec. VI-C"], "Slowdown vs HPS architecture").Measured
	if slowdown <= 1 || slowdown >= 2 {
		t.Errorf("traditional slowdown %.2fx, paper says 'less than 2x slower' (and > 1x)", slowdown)
	}
	tc := byID["Sec. VI-E"]
	if speedup := row(t, tc, "Speedup vs FV-NFLlib on i5 (33 ms)").Measured; speedup < 13 {
		t.Errorf("speedup vs the paper's software baseline is %.1fx, paper reports over 13x", speedup)
	}
	headline := row(t, tc, "This work, 2 coprocessors")
	if d := headline.DeviationPct(); d < -10 || d > 10 {
		t.Errorf("Sec. VI-A rate %.1f Mult/s deviates %+.1f%% from the paper's %v", headline.Measured, d, headline.Paper)
	}
	perMultMs := row(t, t1, "Mult in HW").Measured + row(t, t1, "Send two ciphertexts to HW").Measured +
		row(t, t1, "Receive result ciphertext").Measured
	if fromTableI := paperCoprocs / perMultMs * 1e3; math.Abs(headline.Measured/fromTableI-1) > 1e-12 {
		t.Errorf("Sec. VI-A rate %.6f Mult/s, Table I's rows give %.6f", headline.Measured, fromTableI)
	}
}

// TestTwoCoprocessorsServeTwiceTheMults is the paper's Sec. VI-A claim read
// off the engine that serves: the same four-Mult program on a two-worker and
// a one-worker engine finishes in makespans of exact ratio 2 once the key
// prologue is taken out, and all four results are the software evaluator's,
// bit for bit. Counted as the paper counts (send, Mult and receive of Table
// I, serially on each co-processor) each rate is workers over one Mult's
// TotalSeconds; with the operands resident it is workers over its
// ComputeSeconds.
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
	runs := map[int]served{}
	for _, workers := range []int{1, paperCoprocs} {
		got, err := s.servedMults(workers, rep.SendCycles+rep.ReceiveCycles)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.outs) != 4 {
			t.Fatalf("%d workers: %d outputs, want 4", workers, len(got.outs))
		}
		for i, out := range got.outs {
			if !out.Equal(want) {
				t.Errorf("%d workers: output %d differs from fv.Evaluator.Mul", workers, i)
			}
		}
		w := float64(workers)
		if closed := w / rep.TotalSeconds(); got.rate != closed {
			t.Errorf("%d workers: %.6f Mult/s from the engine, %.6f = workers / TotalSeconds of one Mult", workers, got.rate, closed)
		}
		if closed := w / rep.ComputeSeconds(); got.resident != closed {
			t.Errorf("%d workers: %.6f resident Mult/s from the engine, %.6f = workers / ComputeSeconds of one Mult", workers, got.resident, closed)
		}
		runs[workers] = got
	}
	two, one := runs[paperCoprocs], runs[1]
	if two.rate/one.rate != 2 || two.resident/one.resident != 2 {
		t.Errorf("2 vs 1 co-processors: rate ratios %.6f and %.6f resident, want exactly 2", two.rate/one.rate, two.resident/one.resident)
	}
	if !(two.rate < two.resident) {
		t.Errorf("transfers cost nothing: %.3f Mult/s counted as the paper counts, %.3f resident", two.rate, two.resident)
	}
	t.Logf("%.3f Mult/s on two co-processors (%.3f resident), %.3f on one (%.3f)", two.rate, two.resident, one.rate, one.resident)
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
