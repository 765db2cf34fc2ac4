package hebench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "rewrite BENCH_sim.json from this run")

// simFile is the repository's file of exact figures.
const simFile = "../../BENCH_sim.json"

// measured holds the serving scenarios' measurements by name, so a
// behavioural test and the figure gate read one run per test process.
var measured = map[string]any{}

// once returns measure's result for key, running it the first time key is
// asked for in this process.
func once[T any](key string, measure func() T) T {
	if v, ok := measured[key]; ok {
		return v.(T)
	}
	v := measure()
	measured[key] = v
	return v
}

// suiteFigures returns the figures behind every table of the suite, each
// name under prefix, then the bytes of each BFV key kind.
func suiteFigures(t *testing.T, s *Suite, prefix string) []Figure {
	t.Helper()
	tables, err := s.AllTables()
	if err != nil {
		t.Fatal(err)
	}
	var figs []Figure
	for _, tb := range tables {
		figs = append(figs, tb.Figures...)
	}
	gk := fv.NewKeyGenerator(s.Params, sampler.NewPRNG(2019)).GenGaloisKey(s.SK, 3)
	figs = append(figs,
		keyBytes(t, "bfv.relin_key.bytes", "cloud.TestMuxCarriesTheLargestKeyBlob", func(w io.Writer) error { return fv.WriteRelinKeyV2(w, s.Params, s.RK) }),
		keyBytes(t, "bfv.galois_key.bytes", "cloud.TestMuxCarriesTheLargestKeyBlob", func(w io.Writer) error { return fv.WriteGaloisKeyV2(w, s.Params, gk) }))
	for i := range figs {
		figs[i].Name = prefix + figs[i].Name
	}
	return figs
}

// keyBytes is a key kind's figure: the bytes of its checksummed container,
// the unit a key blob carries.
func keyBytes(t *testing.T, name, test string, write func(io.Writer) error) Figure {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	return Figure{Name: name, Value: float64(b.Len()), Clock: "bytes", Test: test}
}

// ckksFigures returns the CKKS lane's figures at the paper set: one
// Mul+Rescale from the top of the chain on the chain co-processor, and the
// bytes of each CKKS key kind.
func ckksFigures(t *testing.T) []Figure {
	t.Helper()
	p, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(2019)
	kg := ckks.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))
	pt, err := ckks.NewEncoder(p).Encode(make([]float64, p.Slots()), p.MaxLevel(), p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := ckks.NewEncryptor(p, pk, prng).Encrypt(pt)
	_, rep, err := sched.NewCKKS(p, hwsim.DefaultTiming()).MulRescale(ct, ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	return []Figure{
		cycles("paper.ckks.mul_rescale.compute", rep.ComputeCycles, "sched.TestCyclesPredictTheTrace"),
		cycles("paper.ckks.mul_rescale.send", rep.SendCycles, "sched.TestCKKSTraceSumsToTotal"),
		cycles("paper.ckks.mul_rescale.receive", rep.ReceiveCycles, "sched.TestCKKSTraceSumsToTotal"),
		keyBytes(t, "paper.ckks.relin_key.bytes", "ckks.TestRelinKeyRoundTrip", func(w io.Writer) error { return ckks.WriteRelinKeyV2(w, p, rk) }),
		keyBytes(t, "paper.ckks.galois_key.bytes", "ckks.TestGaloisKeyRoundTrip", func(w io.Writer) error { return ckks.WriteGaloisKeyV2(w, p, gk) }),
	}
}

// simFigures computes every row of BENCH_sim.json: the paper suite's
// figures — its tables', the double-buffered Mult stream's, its key
// kinds' — and the CKKS lane's at the paper set, the small suite's, and the
// serving scenarios' simulated makespans.
func simFigures(t *testing.T) []Figure {
	t.Helper()
	paper, err := PaperSuite()
	if err != nil {
		t.Fatal(err)
	}
	figs := suiteFigures(t, paper, "paper.")
	tm := measuredStream(t)
	figs = append(figs,
		cycles("paper.bfv.mul_stream4.pipelined_per_op", tm.Pipelined/streamOps, "hebench.TestSchedOverlapWins"),
		cycles("paper.bfv.mul_stream4.saved", tm.Saved, "hebench.TestSchedOverlapWins"))
	figs = append(figs, ckksFigures(t)...)
	figs = append(figs, suiteFigures(t, smallSuite(t), "small.")...)

	for _, nodes := range []int{1, 2, 4} {
		figs = append(figs, cycles(fmt.Sprintf("cluster.static_%dnode.per_op", nodes),
			hwsim.Cycles(measuredStaticPerOp(t, nodes)), "hebench.TestClusterScaling"))
	}
	return append(figs,
		cycles("cluster.rolling_restart.per_op", hwsim.Cycles(measuredRollingPerOp(t)), "hebench.TestRollingRestartBench"),
		cycles("program.encsearch.makespan", hwsim.Cycles(measuredEncSearch(t).ProgramMakespanCycles), "hebench.TestProgramEncSearchWins"))
}

// encodeFigures is BENCH_sim.json's form: one row a line, in the producer's
// order.
func encodeFigures(figs []Figure) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, f := range figs {
		line, err := json.Marshal(f)
		if err != nil {
			return nil, err
		}
		b.WriteString("  ")
		b.Write(line)
		if i < len(figs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

// TestSimFigures is the gate of every exact figure: each one recomputed by
// this package's producer must equal its row of BENCH_sim.json, and the
// failure names every row that moved, appeared or went. A deliberate change
// is the code plus the one-file diff `go test ./internal/hebench -run
// TestSimFigures -update` writes.
func TestSimFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite is expensive")
	}
	got := simFigures(t)
	enc, err := encodeFigures(got)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(simFile, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(simFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []Figure
	if err := json.Unmarshal(file, &want); err != nil {
		t.Fatalf("%s: %v", simFile, err)
	}

	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	rows := map[string]Figure{}
	for _, f := range want {
		rows[f.Name] = f
	}
	var moved []string
	seen := map[string]bool{}
	for _, g := range got {
		if seen[g.Name] {
			t.Fatalf("the producer emits %q twice", g.Name)
		}
		seen[g.Name] = true
		w, ok := rows[g.Name]
		switch {
		case !ok:
			moved = append(moved, fmt.Sprintf("  %s: new row, %s %s", g.Name, num(g.Value), g.Clock))
		case w != g:
			moved = append(moved, fmt.Sprintf("  %s: %s %s (%s) in the file, %s %s (%s) now",
				g.Name, num(w.Value), w.Clock, w.Test, num(g.Value), g.Clock, g.Test))
		}
	}
	for _, w := range want {
		if !seen[w.Name] {
			moved = append(moved, fmt.Sprintf("  %s: %s %s in the file, no longer produced", w.Name, num(w.Value), w.Clock))
		}
	}
	if len(moved) > 0 {
		t.Fatalf("%d rows of BENCH_sim.json moved (rerun with -update if the change is deliberate):\n%s",
			len(moved), strings.Join(moved, "\n"))
	}
	if !bytes.Equal(file, enc) {
		t.Fatal("BENCH_sim.json holds the right rows but not in the producer's form: rewrite it with -update")
	}
}
