package hwsim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rlwe"
	"repro/internal/rns"
	"repro/internal/sampler"
)

// The fused digit loop against the row executor on a basis the scheduler
// tests never reach: 31-bit primes, too wide for the raw MAC schedule (the
// eager fallback of rlwe.SoPRow, whose Barrett MACs need canonical digits),
// with a 20-bit prime among them, so digits of the 31-bit primes are
// replicated into its row before their transform. Two switches into stale
// scratch and accumulators: same accumulators, ledger and trace.
func TestKeySwitchFallbacksAgree(t *testing.T) {
	const n = 64
	var qm []ring.Modulus
	for i, b := range []int{31, 20, 31} {
		// The i-th prime of its width: distinct from the others.
		qm = append(qm, ring.NewModulus(mustPrimes(t, b, n, i+1)[i]))
	}
	pm := []ring.Modulus{ring.NewModulus(mustPrimes(t, 29, n, 1)[0])}
	qb, err := rns.NewBasis(qm)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rns.NewBasis(pm)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := rns.NewExtender(qb, pm)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := rns.NewScaleRounder(qb, pb, 2)
	if err != nil {
		t.Fatal(err)
	}
	var cs [2]*Coprocessor
	for k := range cs {
		if cs[k], err = New(qm, pm, n, ext, sc, DefaultTiming(), 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs[0].EnableIntegrity(3); err != nil {
		t.Fatal(err)
	}
	if rlwe.RawSoPSafe(qm, len(qm)) {
		t.Fatal("RawSoPSafe holds: the case needs the eager schedule")
	}
	prng := sampler.NewPRNG(9)
	var keys [2][]poly.RNSPoly
	for k := range keys {
		for range qm {
			keys[k] = append(keys[k], sampler.UniformPoly(prng, qm, n))
		}
	}
	ks := KeySwitch{Src: 0, Digit: 1, Sop: 2, Key: 3, Acc: [2]uint8{4, 5}, Keys: keys,
		Batches: []Batch{BatchQ}, Stream: Transfer{Bytes: PolyBytes(n, len(qm)), Label: "key"}}
	for round := range 2 {
		src := sampler.UniformPoly(prng, qm, n)
		var traces [2][]Task
		for k, c := range cs {
			c.ClearSlots()
			c.ResetStats()
			c.LoadSlotCoeff(0, 0, src.Rows)
			if err := c.KeySwitch(ks, &traces[k]); err != nil {
				t.Fatal(err)
			}
		}
		for _, acc := range ks.Acc {
			if g, f := readSlot(cs[0], acc, 0, len(qm)), readSlot(cs[1], acc, 0, len(qm)); !reflect.DeepEqual(g, f) {
				t.Fatalf("switch %d: accumulator slot %d differs between the executors", round, acc)
			}
		}
		if !reflect.DeepEqual(*cs[0].Stats, *cs[1].Stats) || !reflect.DeepEqual(traces[0], traces[1]) {
			t.Fatalf("switch %d: the executors charged or recorded different steps", round)
		}
	}
	// The loop sums from zero: another switch into the same accumulators is
	// refused, by both, before it charges anything.
	for _, c := range cs {
		total := c.Stats.Total
		if err := c.KeySwitch(ks, nil); !errors.Is(err, ErrAccumulatorLive) || c.Stats.Total != total {
			t.Fatalf("switch into live accumulators: %v, %d cycles charged", err, c.Stats.Total-total)
		}
	}
}

func mustPrimes(t *testing.T, bits, n, count int) []uint64 {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(bits, n, count)
	if err != nil {
		t.Fatal(err)
	}
	return primes
}
