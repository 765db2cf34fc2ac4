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
// scheduled operation allocates are those of the result ciphertext the
// allocating forms hand back — and none at all in the …Into forms, which read
// the result back into the caller's ciphertext. allocSlack covers what is
// left — closures, instruction lists, trace and stats entries — and is two
// residue rows at n = 4096 (32 KB each, of which a Mult touches hundreds): a
// readback that allocated a row per element would go over it.
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
		t.Errorf("%s allocates %d bytes per call, over the wall of %d (result rows %d + %d)",
			name, got, limit, resultRows*n*8, allocSlack)
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

	// The same operations into one recycled destination: no result rows.
	out := new(fv.Ciphertext)
	into := func(_ Report, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkWall(t, "AddInto", bytesPerCall(func() { into(s.AddInto(out, ct, ct)) }), 0, n)
	checkWall(t, "MulInto", bytesPerCall(func() { into(s.MulInto(out, ct, ct, rk)) }), 0, n)
	checkWall(t, "RotateInto", bytesPerCall(func() { into(s.RotateInto(out, ct, gk)) }), 0, n)

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
	// A second level as one more input: every call runs the operation at the
	// top of the chain and one level below it, so the level register
	// switches twice per call and a switch that allocates or rebuilds state
	// goes over the wall. The result rows of both levels are the allowance.
	a1, b1 := c.ev.DropLevel(a, a.Level()-1), c.ev.DropLevel(b, b.Level()-1)
	type op func(x, y *ckks.Ciphertext) (*ckks.Ciphertext, Report, error)
	alternate := func(f op) func() {
		return func() {
			must(f(a, b))
			must(f(a1, b1))
		}
	}
	k, n := a.Level()+1, c.p.N()
	checkWall(t, "CKKS Add", bytesPerCall(alternate(c.hw.Add)), 2*k+2*(k-1), n)
	checkWall(t, "CKKS MulRescale", bytesPerCall(alternate(func(x, y *ckks.Ciphertext) (*ckks.Ciphertext, Report, error) {
		return c.hw.MulRescale(x, y, c.rk)
	})), 2*(k-1)+2*(k-2), n)
	checkWall(t, "CKKS Rotate", bytesPerCall(alternate(func(x, _ *ckks.Ciphertext) (*ckks.Ciphertext, Report, error) {
		return c.hw.Rotate(x, 1, c.gk)
	})), 2*k+2*(k-1), n)

	// The …Into forms, every call reading both levels' results into one
	// recycled destination: it is shortened by a row and re-extended within
	// its capacity each call, so a reshape that replaced a row it could keep
	// would go over a wall with no result allowance.
	out := new(ckks.Ciphertext)
	type opInto func(out, x, y *ckks.Ciphertext) (Report, error)
	alternateInto := func(f opInto) func() {
		return func() {
			for _, xy := range [][2]*ckks.Ciphertext{{a, b}, {a1, b1}} {
				if _, err := f(out, xy[0], xy[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkWall(t, "CKKS AddInto", bytesPerCall(alternateInto(c.hw.AddInto)), 0, n)
	checkWall(t, "CKKS MulRescaleInto", bytesPerCall(alternateInto(func(out, x, y *ckks.Ciphertext) (Report, error) {
		return c.hw.MulRescaleInto(out, x, y, c.rk)
	})), 0, n)
	checkWall(t, "CKKS RotateInto", bytesPerCall(alternateInto(func(out, x, _ *ckks.Ciphertext) (Report, error) {
		return c.hw.RotateInto(out, x, 1, c.gk)
	})), 0, n)
}
