package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestLadderSharesAddToOutermostRung(t *testing.T) {
	medians := []float64{19.3, 12.4, 11.6, 11.1, 11.0, 7.5}
	shares, nested := ladderShares(medians)
	if !nested {
		t.Error("a decreasing ladder is nested")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-medians[0]) > 1e-12 {
		t.Errorf("shares add to %v, want R0 = %v", sum, medians[0])
	}
	if shares[len(shares)-1] != 7.5 {
		t.Errorf("the floor keeps its whole median, got %v", shares[len(shares)-1])
	}
}

func TestLadderNegativeShareIsFlagged(t *testing.T) {
	// The second rung is faster than the third: it does not contain it.
	shares, nested := ladderShares([]float64{40.1, 32.7, 34.8, 19.8})
	if nested {
		t.Error("a rung faster than the one below it must clear the nested flag")
	}
	if shares[1] >= 0 {
		t.Errorf("share of the non-nested rung = %v, want negative", shares[1])
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-40.1) > 1e-12 {
		t.Errorf("shares still add to R0: got %v", sum)
	}
}

func TestPeelRunsEveryRungAndRecordsSpans(t *testing.T) {
	calls := make([]int, 3)
	delay := []time.Duration{3 * time.Millisecond, 2 * time.Millisecond, time.Millisecond}
	var rungs []rung
	for k := range calls {
		rungs = append(rungs, rung{name: string(rune('A' + k)), layer: "l", call: func(int) error {
			calls[k]++
			time.Sleep(delay[k])
			return nil
		}})
	}
	rec := newRecorder()
	lad, err := peel(rungs, 20, time.Minute, rec)
	if err != nil {
		t.Fatal(err)
	}
	if lad.Samples != 20 || calls[0] != 20 || calls[1] != 20 || calls[2] != 20 {
		t.Fatalf("samples %d, calls %v; want 20 each", lad.Samples, calls)
	}
	if !lad.Nested || lad.Medians[0] < lad.Medians[1] || lad.Medians[1] < lad.Medians[2] {
		t.Errorf("medians %v should decrease", lad.Medians)
	}
	if rec.count() != 60 {
		t.Errorf("recorded %d spans, want one per call = 60", rec.count())
	}
	// The budget ends the peel early, but never before one block.
	lad, err = peel(rungs, 200, time.Nanosecond, nil)
	if err != nil || lad.Samples != 10 {
		t.Errorf("with no budget: samples %d, err %v; want one block of 10", lad.Samples, err)
	}
	boom := errors.New("boom")
	rungs[1].call = func(int) error { return boom }
	if _, err := peel(rungs, 10, time.Minute, nil); !errors.Is(err, boom) {
		t.Errorf("a failing rung must end the peel with its error, got %v", err)
	}
}

func TestRecorderOffCostsNothingAndRecordsNothing(t *testing.T) {
	var off *recorder
	sp := off.begin("x", nil, 1)
	sp.end() // must not panic
	if off.count() != 0 {
		t.Error("a nil recorder has no spans")
	}
	rec := newRecorder()
	rec.on.Store(false)
	rec.begin("x", nil, 1).end()
	if rec.count() != 0 {
		t.Error("a switched-off recorder must not record")
	}
	rec.on.Store(true)
	root := rec.begin("root", nil, 7)
	child := rec.begin("child", root, 7)
	child.end()
	root.end()
	if rec.count() != 2 || rec.spans[0].Parent != rec.spans[1].ID || rec.spans[0].Req != 7 {
		t.Errorf("spans %+v: the child must name its parent and share the request id", rec.spans)
	}
}
