package difftest

import "testing"

// Fuzz targets: `go test` runs the seed corpus as regression vectors;
// `go test -fuzz FuzzDiffTransform ./internal/difftest` explores further.
// Each target derives both sides' inputs from the fuzz bytes through the
// same deterministic expander, so any divergence between the software
// kernels and the simulated hardware is reproducible from the corpus entry.

func FuzzDiffTransform(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("seed"))
	f.Add([]byte{0xff, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, seed []byte) {
		h := getHarness(t)
		if err := h.DiffTransform(h.FullPolyFromSeed(seed)); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzDiffPointwise(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("a"), []byte("b"))
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6})
	f.Fuzz(func(t *testing.T, sa, sb []byte) {
		h := getHarness(t)
		if err := h.DiffPointwise(h.FullPolyFromSeed(sa), h.FullPolyFromSeed(sb)); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzDiffMulRelin(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("x"), []byte("y"))
	f.Fuzz(func(t *testing.T, sa, sb []byte) {
		h := getHarness(t)
		if err := h.DiffMul(h.PlaintextFromSeed(sa), h.PlaintextFromSeed(sb)); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzDiffCKKSMulRescale(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("x"), []byte("y"))
	f.Fuzz(func(t *testing.T, sa, sb []byte) {
		h := getCKKSHarness(t)
		ca, err := h.CiphertextFromSeed(sa)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := h.CiphertextFromSeed(sb)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.DiffMulRescale(ca, cb); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDiffReusedCoprocessor explores operation sequences on the long-lived
// schedulers of the dirty-file differential (reuse.go): each input is a
// seeded run of mixed operations, some damaged by injected faults, checked op
// by op against a brand-new scheduler.
func FuzzDiffReusedCoprocessor(f *testing.F) {
	f.Add([]byte(nil), false)
	f.Add([]byte("x"), true)
	f.Fuzz(func(t *testing.T, seed []byte, integrity bool) {
		if err := getReuseHarness(t, integrity).Run(seed, 16); err != nil {
			t.Fatal(err)
		}
	})
}
