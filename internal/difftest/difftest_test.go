package difftest

import (
	"sync"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
)

var (
	harnessOnce sync.Once
	harness     *Harness
	harnessErr  error
)

// getHarness shares one harness (keygen is the expensive part) across the
// deterministic tests and the fuzz seed corpus.
func getHarness(t testing.TB) *Harness {
	t.Helper()
	harnessOnce.Do(func() {
		harness, harnessErr = New(fv.TestConfig(257), 42)
	})
	if harnessErr != nil {
		t.Fatal(harnessErr)
	}
	return harness
}

func TestDiffTransformDeterministic(t *testing.T) {
	h := getHarness(t)
	for _, seed := range []string{"", "a", "ntt-vector-1", "ntt-vector-2"} {
		if err := h.DiffTransform(h.FullPolyFromSeed([]byte(seed))); err != nil {
			t.Fatalf("seed %q: %v", seed, err)
		}
	}
}

func TestDiffTransformEdgeVectors(t *testing.T) {
	h := getHarness(t)
	// All-zero and delta inputs exercise the lazy-reduction butterflies at
	// the boundary values (0 and q-1) where conditional subtractions bite.
	zero := h.FullPolyFromSeed(nil)
	for i := range zero.Rows {
		for c := range zero.Rows[i].Coeffs {
			zero.Rows[i].Coeffs[c] = 0
		}
	}
	if err := h.DiffTransform(zero); err != nil {
		t.Fatalf("zero vector: %v", err)
	}
	delta := zero.Clone()
	for i := range delta.Rows {
		delta.Rows[i].Coeffs[0] = delta.Rows[i].Mod.Q - 1
	}
	if err := h.DiffTransform(delta); err != nil {
		t.Fatalf("(q-1)·δ vector: %v", err)
	}
}

func TestDiffPointwiseDeterministic(t *testing.T) {
	h := getHarness(t)
	a := h.FullPolyFromSeed([]byte("lhs"))
	b := h.FullPolyFromSeed([]byte("rhs"))
	if err := h.DiffPointwise(a, b); err != nil {
		t.Fatal(err)
	}
	// a against itself: sub must hit the zero path everywhere.
	if err := h.DiffPointwise(a, a.Clone()); err != nil {
		t.Fatal(err)
	}
}

func TestDiffMulRelinDeterministic(t *testing.T) {
	h := getHarness(t)
	cases := [][2]string{
		{"mul-a-0", "mul-b-0"},
		{"mul-a-1", "mul-b-1"},
	}
	for _, c := range cases {
		ptA := h.PlaintextFromSeed([]byte(c[0]))
		ptB := h.PlaintextFromSeed([]byte(c[1]))
		if err := h.DiffMul(ptA, ptB); err != nil {
			t.Fatalf("seeds %q×%q: %v", c[0], c[1], err)
		}
	}
}

func TestDiffAddDeterministic(t *testing.T) {
	h := getHarness(t)
	ptA := h.PlaintextFromSeed([]byte("add-a"))
	ptB := h.PlaintextFromSeed([]byte("add-b"))
	if err := h.DiffAdd(ptA, ptB); err != nil {
		t.Fatal(err)
	}
}

var (
	ckksHarnessOnce sync.Once
	ckksHarness     *CKKSHarness
	ckksHarnessErr  error
)

// getCKKSHarness shares one CKKS harness across the deterministic tests and
// the fuzz seed corpus, like getHarness does for BFV.
func getCKKSHarness(t testing.TB) *CKKSHarness {
	t.Helper()
	ckksHarnessOnce.Do(func() {
		ckksHarness, ckksHarnessErr = NewCKKS(ckks.TestConfig(), 42)
	})
	if ckksHarnessErr != nil {
		t.Fatal(ckksHarnessErr)
	}
	return ckksHarness
}

// TestDiffCKKSMulRescaleDeterministic walks MulRescale down the whole chain
// for a couple of pinned seed pairs: the accelerator must match the
// software evaluator bit for bit at every level.
func TestDiffCKKSMulRescaleDeterministic(t *testing.T) {
	h := getCKKSHarness(t)
	for _, c := range [][2]string{{"ckks-a-0", "ckks-b-0"}, {"ckks-a-1", "ckks-b-1"}} {
		ca, err := h.CiphertextFromSeed([]byte(c[0]))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := h.CiphertextFromSeed([]byte(c[1]))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.DiffMulRescale(ca, cb); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
}

var (
	reuseOnce      sync.Once
	reuseHarnesses [2]*ReuseHarness
	reuseErr       error
)

// getReuseHarness shares the two dirty-file harnesses (checker off, checker
// on). Sharing is the point: every test and fuzz input runs in the memory
// files all the earlier ones left behind.
func getReuseHarness(t testing.TB, integrity bool) *ReuseHarness {
	t.Helper()
	reuseOnce.Do(func() {
		for i := range reuseHarnesses {
			if reuseHarnesses[i], reuseErr = NewReuse(fv.TestConfig(257), ckks.TestConfig(), 42, i == 1); reuseErr != nil {
				return
			}
		}
	})
	if reuseErr != nil {
		t.Fatal(reuseErr)
	}
	if integrity {
		return reuseHarnesses[1]
	}
	return reuseHarnesses[0]
}

// TestDiffReusedCoprocessorDeterministic: 240 mixed operations on long-lived
// schedulers — two BFV tenants, both architectures, CKKS down the whole
// chain, a quarter of them damaged by an injected fault — agree op by op,
// bits and cycles, with a brand-new scheduler per operation; without the
// checker and with it.
func TestDiffReusedCoprocessorDeterministic(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		h := getReuseHarness(t, integrity)
		if err := h.Run([]byte("dirty-file"), 240); err != nil {
			t.Fatalf("integrity=%v: %v", integrity, err)
		}
		t.Logf("integrity=%v: %d operations ran damaged, %d of them aborted mid-program", integrity, h.Damaged, h.Aborted)
		if h.Damaged < 30 || integrity && h.Aborted < 10 {
			t.Fatalf("integrity=%v: the schedule left too few dirty files behind (%d damaged, %d aborted)",
				integrity, h.Damaged, h.Aborted)
		}
	}
}
