package hwsim

import (
	"testing"

	"repro/internal/obs"
)

// TestCycleSpanAttribution pins the contract between the simulator's
// instruction accounting and the obs span format: every retired instruction
// and DMA step emits one cycle span, and the spans sum exactly to
// Stats.Total over the same window.
func TestCycleSpanAttribution(t *testing.T) {
	c := testCoproc(t, 64)
	tr := obs.New("coproc")
	c.Trace = tr

	instrs := []Instr{
		{Op: OpNTT, Batch: BatchQ, A: 0},
		{Op: OpNTT, Batch: BatchQ, A: 1},
		{Op: OpCMul, Batch: BatchQ, A: 0, B: 1, Dst: 2},
		{Op: OpCAdd, Batch: BatchQ, A: 2, B: 2, Dst: 3},
		{Op: OpINTT, Batch: BatchQ, A: 3},
	}
	var want uint64
	for _, in := range instrs {
		cyc, err := c.Exec(in)
		if err != nil {
			t.Fatal(err)
		}
		want += uint64(cyc)
	}
	want += uint64(c.Transfer(Transfer{Bytes: 4096}))

	root := tr.Root()
	if got := len(root.Children); got != len(instrs)+1 {
		t.Fatalf("emitted %d spans, want %d (one per instruction + DMA)", got, len(instrs)+1)
	}
	if got := root.SumCycles(); got != want {
		t.Fatalf("span cycles sum to %d, executed cycles %d", got, want)
	}
	if got := root.SumCycles(); got != uint64(c.Stats.Total) {
		t.Fatalf("span cycles %d != Stats.Total %d", got, uint64(c.Stats.Total))
	}

	// Span names are the ISA mnemonics plus "dma".
	names := map[string]int{}
	for _, s := range root.Children {
		names[s.Name]++
	}
	if names[OpNTT.String()] != 2 || names[OpINTT.String()] != 1 ||
		names[OpCMul.String()] != 1 || names[OpCAdd.String()] != 1 || names["dma"] != 1 {
		t.Fatalf("unexpected span name histogram: %v", names)
	}
}

// TestUntracedCoprocessorEmitsNothing pins the disabled default.
func TestUntracedCoprocessorEmitsNothing(t *testing.T) {
	c := testCoproc(t, 64)
	if _, err := c.Exec(Instr{Op: OpNTT, Batch: BatchQ, A: 0}); err != nil {
		t.Fatal(err)
	}
	if c.Trace != nil {
		t.Fatal("trace attached by default")
	}
}
