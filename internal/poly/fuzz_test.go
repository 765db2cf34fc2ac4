package poly

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"repro/internal/ring"
)

// fuzzTables: degrees around the vector kernels' minimum and a few levels
// above it, under primes on both sides of their 30-bit line and under the
// Barrett-adversarial primes of barrettPrime at both ends of the AVX2 range.
var fuzzTables = sync.OnceValue(func() []*NTTTable {
	var tabs []*NTTTable
	add := func(q uint64, n int) {
		tab, err := NewNTTTable(ring.NewModulus(q), n)
		if err != nil {
			panic(err)
		}
		tabs = append(tabs, tab)
	}
	for _, n := range []int{4, 8, 16, 64, 256} {
		for _, bitLen := range []int{20, 29, 30, 31} {
			primes, err := ring.GenerateNTTPrimes(bitLen, n, 1)
			if err != nil {
				panic(err)
			}
			add(primes[0], n)
		}
		for _, bitLen := range []int{20, 30} {
			add(barrettPrime(bitLen), n)
		}
	}
	return tabs
})

// barrettPrime returns the largest k-bit prime q ≡ 1 mod 512 (so NTT-friendly
// at every fuzzed degree) whose Barrett constant μ = ⌊2^(2k)/q⌋ drops almost
// a whole unit: 2^(2k) mod q > 0.97·q. GenerateNTTPrimes's primes sit just
// below 2^k, where μ is all but exact and the AVX2 kernels' quotient
// estimate never falls more than one short; under these a sum of two
// products reaches the three-short worst case CANON4 exists for.
func barrettPrime(k int) uint64 {
	for c := uint64(511); ; c += 512 {
		// 2^k ≡ c mod q, so 2^(2k) mod q = c² mod q.
		if q := uint64(1)<<k - c; ring.IsPrime(q) && 100*(c*c%q) > 97*q {
			return q
		}
	}
}

// barrettShort returns how far the AVX2 kernels' two-step Barrett quotient
// ((x >> (k−1))·μ) >> (k+1), k = bits(q), falls below ⌊x/q⌋ for x < 2q²:
// the multiples of q CANON4 takes off the lane afterwards (vec_amd64.s).
func barrettShort(q, x uint64) uint64 {
	k := uint(bits.Len64(q))
	mu := uint64(1) << (2 * k) / q
	hi, lo := bits.Mul64(x>>(k-1), mu)
	return x/q - (hi<<(64-(k+1)) | lo>>(k+1))
}

// barrettSeed is a FuzzKernels input for the prime q: an eight-lane row whose
// residue operands ra, rb, searched among the 96 values just below q, leave
// the Barrett kernels furthest short — lanes 0–3 VecTensorInto's
// t1 = ra² + rb², lanes 4–7 VecMulInto's ra·rb, then VecMulAddInto's rb².
// The row is 76 words long: 76 mod 68 = 8 lanes, a[i] at word i, b[i] at
// word 8 + i, each word stored shifted left by one as FuzzKernels reads it.
func barrettSeed(q uint64) []byte {
	type pair struct{ ra, rb, tensor, mul uint64 }
	var pairs []pair
	for i := uint64(1); i <= 96; i++ {
		for j := uint64(1); j <= 96; j++ {
			ra, rb := q-i, q-j
			pairs = append(pairs, pair{ra, rb, barrettShort(q, ra*ra+rb*rb),
				4*barrettShort(q, ra*rb) + barrettShort(q, rb*rb)})
		}
	}
	lanes := make([]pair, 0, 8)
	sort.SliceStable(pairs, func(x, y int) bool { return pairs[x].tensor > pairs[y].tensor })
	lanes = append(lanes, pairs[:4]...)
	sort.SliceStable(pairs, func(x, y int) bool { return pairs[x].mul > pairs[y].mul })
	lanes = append(lanes, pairs[:4]...)

	data := make([]byte, 4*76)
	for i, l := range lanes {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(l.ra<<1))
		binary.LittleEndian.PutUint32(data[4*(8+i):], uint32(l.rb<<1))
	}
	return data
}

// TestBarrettSeedsReachWorstCase: at the Barrett-adversarial primes the
// seeds do what they are for. Every tensor lane leaves the quotient estimate
// three short (a remainder in [3q, 4q), which only CANON4's 2q step brings
// back) and every product lane two short.
func TestBarrettSeedsReachWorstCase(t *testing.T) {
	for _, k := range []int{20, 30} {
		q := barrettPrime(k)
		data := barrettSeed(q)
		word := func(i int) uint64 { return uint64(binary.LittleEndian.Uint32(data[4*i:]) >> 1) }
		for i := 0; i < 8; i++ {
			ra, rb := word(i), word(8+i)
			x, want := ra*ra+rb*rb, uint64(3)
			if i >= 4 {
				x, want = ra*rb, 2
			}
			if got := barrettShort(q, x); got != want {
				t.Errorf("q=%d lane %d (%d, %d): estimate %d short, want %d", q, i, ra, rb, got, want)
			}
		}
	}
}

// FuzzKernels: the host kernels that have a vector rendition — both
// transforms, the constant-operand Shoup family, the Barrett family and the
// raw MACs — against their scalar references on the same bytes. Canonical and
// raw outputs must be the same words; the lazy Shoup kernels must be
// congruent and below 2q per term (a lazy product may legitimately sit q above
// the scalar one), and the same sum once VecReduceInto closes it.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, uint8(6))
	seed := make([]byte, 4*70)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	for sel, tab := range fuzzTables() {
		f.Add(seed, uint8(sel))
		f.Add(barrettSeed(tab.Mod.Q), uint8(sel))
	}

	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		tabs := fuzzTables()
		tab := tabs[int(sel)%len(tabs)]
		m, n := tab.Mod, tab.N
		word := func(i int) uint64 { // the input as 31-bit words, cycled
			if len(data) < 4 {
				return uint64(i)
			}
			off := (4 * i) % (len(data) - 3)
			return uint64(binary.LittleEndian.Uint32(data[off:]) >> 1)
		}

		// Transforms: dispatched against scalar.
		in := make([]uint64, n)
		for i := range in {
			in[i] = word(i) % m.Q
		}
		want := append([]uint64(nil), in...)
		tab.forwardStages(want, 1, n>>1)
		got := make([]uint64, n)
		tab.ForwardFromInto(got, in)
		sameWords(t, "ForwardFromInto", got, want)
		copy(got, in)
		tab.Forward(got)
		sameWords(t, "Forward", got, want)
		tab.inverseGeneric(want)
		tab.Inverse(got)
		sameWords(t, "Inverse", got, want)
		sameWords(t, "round trip", got, in)

		// Shoup family over a row of whatever length the input gives (so the
		// four-lane body and the scalar tail both occur), 31-bit operands.
		rowLen := len(data) / 4 % 68
		a, b := make([]uint64, rowLen), make([]uint64, rowLen)
		for i := range a {
			a[i], b[i] = word(i), word(i+rowLen)
		}
		wa, wb := word(2*rowLen)%m.Q, word(2*rowLen+1)%m.Q
		was, wbs := m.ShoupPrecomp(wa), m.ShoupPrecomp(wb)

		dst := make([]uint64, rowLen)
		m.VecScalarMulShoupInto(dst, a, wa, was)
		for i := range dst {
			if want := m.MulShoup(a[i], wa, was); dst[i] != want {
				t.Fatalf("VecScalarMulShoupInto lane %d = %d, want %d", i, dst[i], want)
			}
		}
		m.VecScalarMulShoupLazyInto(dst, a, wa, was)
		for i := range dst {
			if dst[i] >= 2*m.Q || dst[i]%m.Q != m.MulShoup(a[i], wa, was) {
				t.Fatalf("VecScalarMulShoupLazyInto lane %d = %d: not a lazy %d·%d", i, dst[i], wa, a[i])
			}
		}
		sum := append([]uint64(nil), dst...)
		m.VecScalarMulShoupLazyAddInto(sum, b, wb, wbs)
		m.VecScalarMulShoupLazyAdd2Into(sum, a, b, wa, was, wb, wbs)
		for i := range sum {
			if sum[i]-dst[i] >= 6*m.Q {
				t.Fatalf("lazy accumulation lane %d: three terms added %d ≥ 6q", i, sum[i]-dst[i])
			}
		}
		m.VecReduceInto(sum, sum)
		for i := range sum {
			pa, pb := m.MulShoup(a[i], wa, was), m.MulShoup(b[i], wb, wbs)
			if want := m.Add(m.Add(pa, pb), m.Add(pa, pb)); sum[i] != want {
				t.Fatalf("closed lazy sum lane %d = %d, want %d", i, sum[i], want)
			}
		}

		// Barrett family and raw MACs over the same row length: residue
		// operands, raw 64-bit words (every other lane within 2^62 of the 2^63
		// bound) and small quotients for the wide-input reductions, and a
		// second table's prime as the rescale's top prime.
		ra, rb, raw, v := make([]uint64, rowLen), make([]uint64, rowLen), make([]uint64, rowLen), make([]uint64, rowLen)
		for i := range ra {
			ra[i], rb[i] = a[i]%m.Q, b[i]%m.Q
			raw[i] = a[i]<<32 | b[i]
			if i%2 == 1 {
				raw[i] = 1<<63 - 1 - a[i]*b[i]
			}
			v[i] = a[i] & 0xFF
		}
		check := func(what string, got []uint64, want func(i int) uint64) {
			t.Helper()
			for i := range got {
				if w := want(i); got[i] != w {
					t.Fatalf("%s q=%d lane %d = %d, want %d", what, m.Q, i, got[i], w)
				}
			}
		}
		m.VecMulInto(dst, ra, rb)
		check("VecMulInto", dst, func(i int) uint64 { return m.Mul(ra[i], rb[i]) })
		acc := append([]uint64(nil), ra...)
		m.VecMulAddInto(acc, rb, rb)
		check("VecMulAddInto", acc, func(i int) uint64 { return m.Add(ra[i], m.Mul(rb[i], rb[i])) })
		c := wa // any 64-bit scalar
		if rowLen > 0 {
			c += raw[0]
		}
		m.VecScalarMulInto(dst, ra, c)
		check("VecScalarMulInto", dst, func(i int) uint64 { return m.Mul(ra[i], m.Reduce(c)) })
		m.VecMulRawInto(dst, ra, rb)
		check("VecMulRawInto", dst, func(i int) uint64 { return ra[i] * rb[i] })
		m.VecMulAddRawInto(dst, rb, rb)
		check("VecMulAddRawInto", dst, func(i int) uint64 { return ra[i]*rb[i] + rb[i]*rb[i] })
		t0, t1, t2 := make([]uint64, rowLen), make([]uint64, rowLen), make([]uint64, rowLen)
		m.VecTensorInto(t0, t1, t2, ra, rb, rb, ra)
		check("VecTensorInto t0", t0, func(i int) uint64 { return m.Mul(ra[i], rb[i]) })
		check("VecTensorInto t1", t1, func(i int) uint64 { return m.Add(m.Mul(ra[i], ra[i]), m.Mul(rb[i], rb[i])) })
		check("VecTensorInto t2", t2, func(i int) uint64 { return m.Mul(rb[i], ra[i]) })
		m.VecAddInto(dst, ra, rb)
		check("VecAddInto", dst, func(i int) uint64 { return m.Add(ra[i], rb[i]) })
		m.VecSubInto(dst, ra, rb)
		check("VecSubInto", dst, func(i int) uint64 { return m.Sub(ra[i], rb[i]) })
		twice := make([]uint64, rowLen) // lanes below 2q
		for i := range twice {
			twice[i] = ra[i] + ra[i]
		}
		m.VecReduceOnceInto(dst, twice)
		check("VecReduceOnceInto", dst, func(i int) uint64 { return m.Reduce(twice[i]) })
		m.VecReduceInto(dst, raw)
		check("VecReduceInto", dst, func(i int) uint64 { return m.Reduce(raw[i]) })
		fin := append([]uint64(nil), raw...)
		m.VecExtendFinishInto(fin, v, wb, wbs)
		check("VecExtendFinishInto", fin, func(i int) uint64 { return m.Sub(m.Reduce(raw[i]), m.MulShoup(v[i], wb, wbs)) })
		if top := tabs[(int(sel)+1)%len(tabs)].Mod; top.Q != m.Q {
			tr := make([]uint64, rowLen)
			for i := range tr {
				tr[i] = a[i] % top.Q
			}
			half, inv := m.Reduce(top.Q>>1), m.Inv(m.Reduce(top.Q))
			m.VecRescaleInto(dst, ra, tr, top, half, inv, m.ShoupPrecomp(inv))
			check("VecRescaleInto", dst, func(i int) uint64 {
				rp := (tr[i] + top.Q>>1) % top.Q
				return m.Mul(m.Sub(m.Add(ra[i], half), m.Reduce(rp)), inv)
			})
		}
	})
}
