package poly

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

// The transforms as dispatched (vector kernels where the build, the CPU and
// the table allow them) against the scalar levels, which are compiled in
// every build and called here directly: same words in, same words out. Under
// -tags purego, off amd64 and for the 31-bit prime the two sides are the same
// code and the test pins only that the dispatch leaves them alone.

// diffTables: every power-of-two degree 4…8192, under NTT-friendly primes of
// 20 to 30 bits (the first of each width that admits the degree) and one of
// 31 bits, which must take the scalar path — its lazy < 4q range does not fit
// a 32-bit lane — and still be right.
func diffTables(t testing.TB) []*NTTTable {
	t.Helper()
	var tabs []*NTTTable
	for n := 4; n <= 8192; n <<= 1 {
		for bitLen := 20; bitLen <= 31; bitLen++ {
			primes, err := ring.GenerateNTTPrimes(bitLen, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := NewNTTTable(ring.NewModulus(primes[0]), n)
			if err != nil {
				t.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
	}
	return tabs
}

func sameWords(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %d, the scalar path gives %d", what, i, got[i], want[i])
		}
	}
}

func TestTransformsMatchScalarPath(t *testing.T) {
	for _, tab := range diffTables(t) {
		n, q := tab.N, tab.Mod.Q
		r := rand.New(rand.NewSource(int64(q) ^ int64(n)))
		inputs := map[string][]uint64{"random": make([]uint64, n), "all q-1": make([]uint64, n), "zero": make([]uint64, n)}
		for i := 0; i < n; i++ {
			inputs["random"][i] = r.Uint64() % q
			inputs["all q-1"][i] = q - 1
		}
		for name, in := range inputs {
			what := fmt.Sprintf("n=%d q=%d (%d bits) %s", n, q, bits.Len64(q), name)
			clone := func() []uint64 { return append([]uint64(nil), in...) }

			want := clone()
			tab.forwardStages(want, 1, n>>1)

			got := clone()
			tab.Forward(got)
			sameWords(t, what+": Forward", got, want)

			got = clone()
			tab.ForwardFromInto(got, got)
			sameWords(t, what+": ForwardFromInto in place", got, want)

			src, dst := clone(), make([]uint64, n)
			tab.ForwardFromInto(dst, src)
			sameWords(t, what+": ForwardFromInto disjoint", dst, want)
			sameWords(t, what+": ForwardFromInto source", src, in)

			ref := make([]uint64, n)
			tab.forwardFromIntoGeneric(ref, src)
			sameWords(t, what+": forwardFromIntoGeneric", ref, want)

			// The inverse, from an NTT-domain point (want) and from the raw
			// input read as one: both are length-n vectors of residues.
			for _, point := range [][]uint64{want, in} {
				wantInv := append([]uint64(nil), point...)
				tab.inverseGeneric(wantInv)
				gotInv := append([]uint64(nil), point...)
				tab.Inverse(gotInv)
				sameWords(t, what+": Inverse", gotInv, wantInv)
			}
		}
	}
}

// ForwardFromInto takes inputs below 2q: on every table, inputs in [q, 2q)
// — random, all q, all 2q−1 — and a random mix of [0, 2q) transform word
// for word as their reduction does through the scalar levels, on the
// dispatched path and on the scalar first level alike.
func TestForwardFromIntoBelowTwoQ(t *testing.T) {
	for _, tab := range diffTables(t) {
		n, q := tab.N, tab.Mod.Q
		r := rand.New(rand.NewSource(int64(q) ^ int64(n) ^ 2))
		inputs := map[string][]uint64{"random high": make([]uint64, n), "all q": make([]uint64, n),
			"all 2q-1": make([]uint64, n), "mixed": make([]uint64, n)}
		for i := 0; i < n; i++ {
			inputs["random high"][i] = q + r.Uint64()%q
			inputs["all q"][i] = q
			inputs["all 2q-1"][i] = 2*q - 1
			inputs["mixed"][i] = r.Uint64() % (2 * q)
		}
		for name, in := range inputs {
			what := fmt.Sprintf("n=%d q=%d (%d bits) %s", n, q, bits.Len64(q), name)
			want := make([]uint64, n)
			for i, x := range in {
				want[i] = x % q
			}
			tab.forwardStages(want, 1, n>>1)

			got := make([]uint64, n)
			tab.ForwardFromInto(got, in)
			sameWords(t, what+": ForwardFromInto", got, want)
			tab.forwardFromIntoGeneric(got, in)
			sameWords(t, what+": forwardFromIntoGeneric", got, want)
		}
	}
}
