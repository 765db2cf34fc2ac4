package poly

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/ring"
)

// fuzzTables: degrees around the vector kernels' minimum and a few levels
// above it, under primes on both sides of their 30-bit line.
var fuzzTables = sync.OnceValue(func() []*NTTTable {
	var tabs []*NTTTable
	for _, n := range []int{4, 8, 16, 64, 256} {
		for _, bitLen := range []int{20, 29, 30, 31} {
			primes, err := ring.GenerateNTTPrimes(bitLen, n, 1)
			if err != nil {
				panic(err)
			}
			tab, err := NewNTTTable(ring.NewModulus(primes[0]), n)
			if err != nil {
				panic(err)
			}
			tabs = append(tabs, tab)
		}
	}
	return tabs
})

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
	for sel := 0; sel < len(fuzzTables()); sel++ {
		f.Add(seed, uint8(sel))
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
