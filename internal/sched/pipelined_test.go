package sched

import (
	"math/rand"
	"testing"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// TestPipelinedCycleAccountingExact pins the overlap accounting: the (load,
// compute, store) triples of sequential Mul calls are the whole input of the
// double-buffered schedule. Their back-to-back sum equals what the
// co-processor's own ledger charged plus the result DMA the BFV Mul leaves
// off it (machine.finish), to the cycle, and the saving SimulateStream
// derives from them matches Σ min(dma_{i+1}, compute_i) exactly.
func TestPipelinedCycleAccountingExact(t *testing.T) {
	p, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	c, err := hwsim.NewCoprocessor(p.QMods, p.PMods, p.N(), p.Lifter, p.Scaler,
		hwsim.VariantHPS, hwsim.DefaultTiming(), MinSlots())
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, c)
	prng := sampler.NewPRNG(12)
	kg := fv.NewKeyGenerator(p, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk := kg.GenRelinKey(sk, fv.HPS, 0, 0)
	enc := fv.NewEncryptor(p, pk, prng)
	rng := rand.New(rand.NewSource(202))

	d := c.DMAEng
	polyB := s.polyBytes()
	steps := make([]hwsim.StreamStep, 5)
	before := c.Stats.Total
	for i := range steps {
		a, b := fv.NewPlaintext(p), fv.NewPlaintext(p)
		for j := range a.Coeffs {
			a.Coeffs[j] = uint64(rng.Intn(257))
			b.Coeffs[j] = uint64(rng.Intn(257))
		}
		_, compute, err := s.Mul(enc.Encrypt(a), enc.Encrypt(b), rk)
		if err != nil {
			t.Fatal(err)
		}
		steps[i] = hwsim.StreamStep{LoadBytes: 4 * polyB, Compute: compute, StoreBytes: 2 * polyB}
	}
	charged := c.Stats.Total - before
	charged += hwsim.Cycles(len(steps)) * d.FPGACycles(hwsim.Transfer{Bytes: 2 * polyB})

	timing := d.SimulateStream(steps, 2)
	if timing.Serial != charged {
		t.Fatalf("stream serial cycles %d != co-processor charge + result DMA %d", timing.Serial, charged)
	}

	// The saving formula, proven on the real recorded step profile.
	var want hwsim.Cycles
	for i := 1; i < len(steps); i++ {
		want += min(d.FPGACycles(hwsim.Transfer{Bytes: steps[i].LoadBytes}), steps[i-1].Compute)
	}
	if timing.Saved != want {
		t.Fatalf("saved %d cycles, want Σ min(dma_{i+1}, compute_i) = %d", timing.Saved, want)
	}
	if timing.Saved <= 0 {
		t.Fatal("stream hid nothing")
	}

	// Consistency with the step timeline.
	if got := timing.Pipelined; got < timing.LowerBound || got > timing.Serial {
		t.Fatalf("pipelined %d outside [lower bound %d, serial %d]",
			got, timing.LowerBound, timing.Serial)
	}
}

// TestPipelinedMinSlots pins the memory-file arithmetic.
func TestPipelinedMinSlots(t *testing.T) {
	if got := PipelinedMinSlots(1); got != MinSlots() {
		t.Fatalf("PipelinedMinSlots(1) = %d, want %d", got, MinSlots())
	}
	if got := PipelinedMinSlots(2); got != MinSlots()+4 {
		t.Fatalf("PipelinedMinSlots(2) = %d, want %d", got, MinSlots()+4)
	}
}
