package sched

import (
	"testing"

	"repro/internal/fv"
	"repro/internal/sampler"
)

func TestAnalyzeOverlapBasics(t *testing.T) {
	// Two independent tasks on different units overlap fully.
	trace := []Task{
		{Label: "ntt", Unit: UnitRPAU, Cycles: 100, Reads: []uint8{0}, Writes: []uint8{0}},
		{Label: "lift", Unit: UnitLiftScale, Cycles: 80, Reads: []uint8{1}, Writes: []uint8{1}},
	}
	an := AnalyzeOverlap(trace)
	if an.Sequential != 180 {
		t.Fatalf("sequential = %d", an.Sequential)
	}
	if an.Overlapped != 100 {
		t.Fatalf("overlapped = %d, want 100 (full overlap)", an.Overlapped)
	}
	if an.CriticalPath != 100 {
		t.Fatalf("critical path = %d", an.CriticalPath)
	}

	// A RAW dependency forces serialization even across units.
	trace[1].Reads = []uint8{0}
	an = AnalyzeOverlap(trace)
	if an.Overlapped != 180 {
		t.Fatalf("RAW not honored: overlapped = %d", an.Overlapped)
	}

	// Same-unit tasks serialize even when independent.
	trace = []Task{
		{Unit: UnitRPAU, Cycles: 50, Writes: []uint8{0}},
		{Unit: UnitRPAU, Cycles: 50, Writes: []uint8{1}},
	}
	if an := AnalyzeOverlap(trace); an.Overlapped != 100 {
		t.Fatalf("unit exclusivity not honored: %d", an.Overlapped)
	}

	// WAR: a write must wait for an earlier reader.
	trace = []Task{
		{Unit: UnitRPAU, Cycles: 50, Reads: []uint8{0}, Writes: []uint8{1}},
		{Unit: UnitDMA, Cycles: 10, Writes: []uint8{0}},
	}
	if an := AnalyzeOverlap(trace); an.Overlapped != 60 {
		t.Fatalf("WAR not honored: %d", an.Overlapped)
	}

	// WAW: two writers to the same slot keep their order.
	trace = []Task{
		{Unit: UnitRPAU, Cycles: 50, Writes: []uint8{0}},
		{Unit: UnitDMA, Cycles: 10, Writes: []uint8{0}},
	}
	if an := AnalyzeOverlap(trace); an.Overlapped != 60 {
		t.Fatalf("WAW not honored: %d", an.Overlapped)
	}
}

func TestAnalyzeOverlapEmpty(t *testing.T) {
	an := AnalyzeOverlap(nil)
	if an.Sequential != 0 || an.Overlapped != 0 || an.Speedup() != 1 {
		t.Fatal("empty trace should be all zeros")
	}
}

func TestMulTraceOverlap(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(60)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	_ = sk
	enc := fv.NewEncryptor(p, pk, prng)
	ca := enc.Encrypt(fv.NewPlaintext(p))
	cb := enc.Encrypt(fv.NewPlaintext(p))

	s.Record = true
	if _, _, err := s.Mul(ca, cb, rk); err != nil {
		t.Fatal(err)
	}
	if len(s.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	an := AnalyzeOverlap(s.Trace)
	// Sanity ordering: critical path ≤ overlapped ≤ sequential.
	if !(an.CriticalPath <= an.Overlapped && an.Overlapped <= an.Sequential) {
		t.Fatalf("ordering violated: cp=%d ov=%d seq=%d",
			an.CriticalPath, an.Overlapped, an.Sequential)
	}
	// The bottleneck unit's busy time lower-bounds the makespan.
	for u, busy := range an.UnitBusy {
		if busy > an.Overlapped {
			t.Fatalf("unit %d busy %d exceeds makespan %d", u, busy, an.Overlapped)
		}
	}
	// The Mult pipeline has genuine overlap opportunities (Lift/Scale vs
	// transforms vs rlk streaming): expect a real speedup.
	if sp := an.Speedup(); sp < 1.1 {
		t.Fatalf("block-level overlap yields speedup %.2f, expected > 1.1", sp)
	}
	// All three units must appear in the trace.
	seen := map[Unit]bool{}
	for _, task := range s.Trace {
		seen[task.Unit] = true
	}
	if len(seen) != 3 {
		t.Fatalf("trace uses %d units, want 3", len(seen))
	}
}

func TestTraceNotRecordedByDefault(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(61)
	kg := fv.NewKeyGenerator(p, prng)
	_, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(p, pk, prng)
	ca := enc.Encrypt(fv.NewPlaintext(p))
	if _, _, err := s.Mul(ca, ca, rk); err != nil {
		t.Fatal(err)
	}
	if len(s.Trace) != 0 {
		t.Fatal("trace recorded without Record")
	}
}
