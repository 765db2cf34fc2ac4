package sched

import (
	"runtime"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// The allocation wall of the hardware path, next to the exact sim-cycle
// pins: the co-processor's memory file is resident, so once an operation has
// run twice (rows touched, scratch at its high-water mark) the only rows a
// scheduled operation allocates are the result ciphertext it hands back.
// allocSlack covers what is left — closures, instruction lists, trace and
// stats entries — and is far below one residue row of an element (32 KB at
// n = 4096, of which a Mult touches hundreds).
const allocSlack = 64 << 10

// bytesPerCall returns the mean bytes allocated by f over 10 calls, after
// two warm-up calls.
func bytesPerCall(f func()) uint64 {
	f()
	f()
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

func checkWall(t *testing.T, name string, got uint64, resultRows, n int) {
	t.Helper()
	limit := uint64(resultRows*n*8 + allocSlack)
	t.Logf("%s: %d bytes/op (result %d, wall %d)", name, got, resultRows*n*8, limit)
	if got > limit {
		t.Errorf("%s allocates %d bytes per call, over the wall of %d (result ciphertext + %d)",
			name, got, limit, allocSlack)
	}
}

func TestPaperSetAllocWall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	p, s := setupConfig(t, fv.PaperConfig(2))
	prng := sampler.NewPRNG(2019)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, 3)
	ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))
	must := func(_ *fv.Ciphertext, _ Report, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	rows, n := 2*p.QBasis.K(), p.N()
	checkWall(t, "Add", bytesPerCall(func() { must(s.Add(ct, ct)) }), rows, n)
	checkWall(t, "Mul", bytesPerCall(func() { must(s.Mul(ct, ct, rk)) }), rows, n)
	checkWall(t, "Rotate", bytesPerCall(func() { must(s.Rotate(ct, gk)) }), rows, n)

	// The guarded path: fingerprints, snapshots and the transform check live
	// in resident scratch too, so no guarded instruction allocates a row:
	// what is left per instruction is its dispatch closure, where a snapshot
	// clone per written row would be 6 to 13 allocations.
	if err := s.C.EnableIntegrity(7); err != nil {
		t.Fatal(err)
	}
	checkWall(t, "guarded Mul", bytesPerCall(func() { must(s.Mul(ct, ct, rk)) }), rows, n)
	instrs := 0
	s.C.ResetStats()
	must(s.Mul(ct, ct, rk))
	for _, st := range s.C.Stats.PerOp {
		instrs += st.Calls
	}
	allocs := testing.AllocsPerRun(5, func() { must(s.Mul(ct, ct, rk)) })
	t.Logf("guarded Mul: %.0f allocations over %d instructions", allocs, instrs)
	if allocs > float64(3*instrs) {
		t.Errorf("guarded Mul makes %.0f allocations for %d instructions: something allocates per instruction beyond its dispatch", allocs, instrs)
	}
}

func TestCKKSPaperSetAllocWall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	c := newCKKSTestContextConfig(t, ckks.PaperConfig())
	a, b := c.encryptRange(t, 3), c.encryptRange(t, 7)
	must := func(_ *ckks.Ciphertext, _ Report, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	k, n := a.Level()+1, c.p.N()
	checkWall(t, "CKKS Add", bytesPerCall(func() { must(c.hw.Add(a, b)) }), 2*k, n)
	checkWall(t, "CKKS MulRescale", bytesPerCall(func() { must(c.hw.MulRescale(a, b, c.rk)) }), 2*(k-1), n)
	checkWall(t, "CKKS Rotate", bytesPerCall(func() { must(c.hw.Rotate(a, 1, c.gk)) }), 2*k, n)
}
