package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

// The flat kernels of vec.go, each held lane by lane to the scalar Modulus
// methods they claim to be bit-identical to — directly, not through the rns
// and fv callers that were their only tests. Every kernel runs at every length
// 0…67 (so the four-lane vector body, its scalar tail and the empty row are
// all covered), with dst disjoint from and aliasing each operand, lanes pinned
// at the ends of the operand range, over moduli on both sides of the 30-bit
// word-size line, at the 31-bit cap and far below it.

// vecModuli: a narrow prime (12289, the vector lanes' width-dependent shifts
// and Barrett constant at k = 14), the first prime above 2^29, the last below
// 2^30, and 2^31 − 1 (scalar only).
func vecModuli(t testing.TB) []Modulus {
	t.Helper()
	up := uint64(1<<29 + 1)
	for !IsPrime(up) {
		up++
	}
	down := uint64(1<<30 - 1)
	for !IsPrime(down) {
		down--
	}
	if !IsPrime(1<<31 - 1) {
		t.Fatal("2^31 − 1 is prime")
	}
	return []Modulus{NewModulus(12289), NewModulus(up), NewModulus(down), NewModulus(1<<31 - 1)}
}

// vecKernel describes one kernel to the harness.
type vecKernel struct {
	name string
	nIn  int // operand rows besides dst
	// inMax bounds operand lanes (exclusive); dstMax bounds the lanes dst
	// holds on entry, nil when the kernel only writes dst.
	inMax, dstMax func(m Modulus) uint64
	run           func(m Modulus, dst []uint64, in [][]uint64)
	// want is the lane's result from its prior dst word d and operand words x,
	// by the scalar methods. For a lazy kernel (lazyTerms > 0) it is the
	// canonical value of what the kernel adds to d.
	want      func(m Modulus, d uint64, x []uint64) uint64
	lazyTerms uint64
}

func belowQ(m Modulus) uint64 { return m.Q }

// A fixed operand for the constant-operand kernels, per modulus.
func shoupConst(m Modulus, salt uint64) (w, wShoup uint64) {
	w = (m.Q/3 + salt*0x9E3779B9) % m.Q
	return w, m.ShoupPrecomp(w)
}

var vecKernels = []vecKernel{
	{name: "VecAddInto", nIn: 2, inMax: belowQ,
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecAddInto(dst, in[0], in[1]) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 { return m.Add(x[0], x[1]) }},
	{name: "VecSubInto", nIn: 2, inMax: belowQ,
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecSubInto(dst, in[0], in[1]) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 { return m.Sub(x[0], x[1]) }},
	{name: "VecNegInto", nIn: 1, inMax: belowQ,
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecNegInto(dst, in[0]) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 { return m.Neg(x[0]) }},
	{name: "VecMulInto", nIn: 2, inMax: belowQ,
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecMulInto(dst, in[0], in[1]) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 { return m.Mul(x[0], x[1]) }},
	{name: "VecMulAddInto", nIn: 2, inMax: belowQ, dstMax: belowQ,
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecMulAddInto(dst, in[0], in[1]) },
		want: func(m Modulus, d uint64, x []uint64) uint64 { return m.Add(d, m.Mul(x[0], x[1])) }},
	{name: "VecScalarMulInto", nIn: 1, inMax: belowQ,
		run: func(m Modulus, dst []uint64, in [][]uint64) { m.VecScalarMulInto(dst, in[0], ^uint64(0)-12345) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 {
			return m.Mul(x[0], m.Reduce(^uint64(0)-12345))
		}},
	{name: "VecMulRawInto", nIn: 2, inMax: belowQ,
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecMulRawInto(dst, in[0], in[1]) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 { return x[0] * x[1] }},
	{name: "VecMulAddRawInto", nIn: 2, inMax: belowQ, dstMax: func(Modulus) uint64 { return 1 << 62 },
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecMulAddRawInto(dst, in[0], in[1]) },
		want: func(m Modulus, d uint64, x []uint64) uint64 { return d + x[0]*x[1] }},
	{name: "VecReduceOnceInto", nIn: 1, inMax: func(m Modulus) uint64 { return 2 * m.Q },
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecReduceOnceInto(dst, in[0]) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 { return m.Reduce(x[0]) }},
	{name: "VecReduceInto", nIn: 1, inMax: func(Modulus) uint64 { return 1 << 63 },
		run:  func(m Modulus, dst []uint64, in [][]uint64) { m.VecReduceInto(dst, in[0]) },
		want: func(m Modulus, _ uint64, x []uint64) uint64 { return m.Reduce(x[0]) }},
	{name: "VecExtendFinishInto", nIn: 1, inMax: func(Modulus) uint64 { return 1 << 20 },
		dstMax: func(Modulus) uint64 { return 1 << 63 },
		run: func(m Modulus, dst []uint64, in [][]uint64) {
			w, ws := shoupConst(m, 1)
			m.VecExtendFinishInto(dst, in[0], w, ws)
		},
		want: func(m Modulus, d uint64, x []uint64) uint64 {
			w, ws := shoupConst(m, 1)
			return m.Sub(m.Reduce(d), m.MulShoup(x[0], w, ws))
		}},

	// The constant-operand Shoup family. Operands are residues of *some*
	// modulus of the basis, not necessarily this one, so they range over every
	// 31-bit value.
	{name: "VecScalarMulShoupInto", nIn: 1, inMax: func(Modulus) uint64 { return 1 << 31 },
		run: func(m Modulus, dst []uint64, in [][]uint64) {
			w, ws := shoupConst(m, 2)
			m.VecScalarMulShoupInto(dst, in[0], w, ws)
		},
		want: func(m Modulus, _ uint64, x []uint64) uint64 {
			w, ws := shoupConst(m, 2)
			return m.MulShoup(x[0], w, ws)
		}},
	// The lazy three are not compared word for word with MulShoupLazy: a lazy
	// product is any representative below 2q, and the vector lane (quotient
	// estimated from 32 bits of the Shoup companion) may pick the one q above
	// the scalar lane's (64 bits). What callers rely on, and what is asserted,
	// is the congruence and the < 2q-per-term bound their closing reduction
	// is sized for.
	{name: "VecScalarMulShoupLazyInto", nIn: 1, inMax: func(Modulus) uint64 { return 1 << 31 }, lazyTerms: 1,
		run: func(m Modulus, dst []uint64, in [][]uint64) {
			w, ws := shoupConst(m, 3)
			m.VecScalarMulShoupLazyInto(dst, in[0], w, ws)
		},
		want: func(m Modulus, _ uint64, x []uint64) uint64 {
			w, ws := shoupConst(m, 3)
			return m.MulShoup(x[0], w, ws)
		}},
	{name: "VecScalarMulShoupLazyAddInto", nIn: 1, inMax: func(Modulus) uint64 { return 1 << 31 },
		dstMax: func(Modulus) uint64 { return 1 << 62 }, lazyTerms: 1,
		run: func(m Modulus, dst []uint64, in [][]uint64) {
			w, ws := shoupConst(m, 4)
			m.VecScalarMulShoupLazyAddInto(dst, in[0], w, ws)
		},
		want: func(m Modulus, _ uint64, x []uint64) uint64 {
			w, ws := shoupConst(m, 4)
			return m.MulShoup(x[0], w, ws)
		}},
	{name: "VecScalarMulShoupLazyAdd2Into", nIn: 2, inMax: func(Modulus) uint64 { return 1 << 31 },
		dstMax: func(Modulus) uint64 { return 1 << 62 }, lazyTerms: 2,
		run: func(m Modulus, dst []uint64, in [][]uint64) {
			wa, was := shoupConst(m, 5)
			wb, wbs := shoupConst(m, 6)
			m.VecScalarMulShoupLazyAdd2Into(dst, in[0], in[1], wa, was, wb, wbs)
		},
		want: func(m Modulus, _ uint64, x []uint64) uint64 {
			wa, was := shoupConst(m, 5)
			wb, wbs := shoupConst(m, 6)
			return m.Add(m.MulShoup(x[0], wa, was), m.MulShoup(x[1], wb, wbs))
		}},
}

const vecGuard = 0xDEADBEEFCAFEF00D

// vecRow returns a row of n lanes below max — lanes pinned at 0 and max−1 in
// a pattern that puts both in the vector body and in the tail — followed by
// guard words a kernel must leave alone.
func vecRow(r *rand.Rand, n int, max uint64) []uint64 {
	row := make([]uint64, n+4)
	for i := range row {
		switch {
		case i >= n:
			row[i] = vecGuard
		case i%5 == 0:
			row[i] = 0
		case i%5 == 3:
			row[i] = max - 1
		default:
			row[i] = r.Uint64() % max
		}
	}
	return row[:n]
}

func checkGuard(t *testing.T, what string, row []uint64) {
	t.Helper()
	for i, g := range row[len(row):cap(row)] {
		if g != vecGuard {
			t.Fatalf("%s: wrote %#x past the end of the row (guard word %d)", what, g, i)
		}
	}
}

// checkKernel runs k once and compares every lane; alias ≥ 0 makes dst the
// same slice as that operand.
func checkKernel(t *testing.T, r *rand.Rand, k vecKernel, m Modulus, n, alias int) {
	t.Helper()
	what := fmt.Sprintf("%s q=%d n=%d alias=%d", k.name, m.Q, n, alias)
	in := make([][]uint64, k.nIn)
	before := make([][]uint64, k.nIn)
	for j := range in {
		in[j] = vecRow(r, n, k.inMax(m))
		before[j] = append([]uint64(nil), in[j]...)
	}
	var dst []uint64
	switch {
	case alias >= 0:
		dst = in[alias]
	case k.dstMax != nil:
		dst = vecRow(r, n, k.dstMax(m))
	default:
		dst = vecRow(r, n, ^uint64(0)) // garbage the kernel must overwrite
	}
	d0 := append([]uint64(nil), dst...)

	k.run(m, dst, in)

	checkGuard(t, what, dst)
	x := make([]uint64, k.nIn)
	for i := 0; i < n; i++ {
		for j := range x {
			x[j] = before[j][i]
		}
		want := k.want(m, d0[i], x)
		if k.lazyTerms == 0 {
			if dst[i] != want {
				t.Fatalf("%s: lane %d = %d, scalar methods give %d (dst was %d, operands %v)", what, i, dst[i], want, d0[i], x)
			}
			continue
		}
		added := dst[i]
		if k.dstMax != nil {
			added -= d0[i]
		}
		if added >= 2*k.lazyTerms*m.Q || added%m.Q != want {
			t.Fatalf("%s: lane %d added %d: want ≡ %d (mod q) and < %d·2q (operands %v)", what, i, added, want, k.lazyTerms, x)
		}
	}
	for j := range in {
		if j == alias {
			continue
		}
		checkGuard(t, what, in[j])
		for i := range in[j] {
			if in[j][i] != before[j][i] {
				t.Fatalf("%s: operand %d lane %d was modified", what, j, i)
			}
		}
	}
}

func TestVecKernelsMatchScalarMethods(t *testing.T) {
	for _, m := range vecModuli(t) {
		for _, k := range vecKernels {
			r := rand.New(rand.NewSource(int64(m.Q)))
			for n := 0; n <= 67; n++ {
				for alias := -1; alias < k.nIn; alias++ {
					checkKernel(t, r, k, m, n, alias)
				}
			}
		}
	}
}

// TestVecTensorMatchesScalarMethods: the fused tensor row against Mul/Add,
// with each output row aliasing an operand row in turn (every lane's four
// operands are read before its three results are stored).
func TestVecTensorMatchesScalarMethods(t *testing.T) {
	for _, m := range vecModuli(t) {
		r := rand.New(rand.NewSource(int64(m.Q) + 1))
		for n := 0; n <= 67; n++ {
			for alias := -1; alias < 4; alias++ {
				var in, before [4][]uint64
				for j := range in {
					in[j] = vecRow(r, n, m.Q)
					before[j] = append([]uint64(nil), in[j]...)
				}
				var out [3][]uint64
				for j := range out {
					out[j] = vecRow(r, n, ^uint64(0))
				}
				if alias >= 0 {
					out[alias%3] = in[alias]
				}
				m.VecTensorInto(out[0], out[1], out[2], in[0], in[1], in[2], in[3])
				for i := 0; i < n; i++ {
					a0, a1, b0, b1 := before[0][i], before[1][i], before[2][i], before[3][i]
					want := [3]uint64{m.Mul(a0, b0), m.Add(m.Mul(a0, b1), m.Mul(a1, b0)), m.Mul(a1, b1)}
					for j := range out {
						if out[j][i] != want[j] {
							t.Fatalf("VecTensorInto q=%d n=%d alias=%d: t%d lane %d = %d, want %d", m.Q, n, alias, j, i, out[j][i], want[j])
						}
					}
				}
				for j := range out {
					checkGuard(t, "VecTensorInto", out[j])
				}
			}
		}
	}
}

// TestVecRescaleMatchesScalarFormula: the rescale row against its formula in
// the scalar methods, for every pair of distinct moduli — top primes narrower
// and wider than Q, so r' mod Q is sometimes the identity and sometimes not —
// with dst disjoint from x and aliasing it.
func TestVecRescaleMatchesScalarFormula(t *testing.T) {
	mods := vecModuli(t)
	for _, m := range mods {
		for _, qt := range mods {
			if qt.Q == m.Q {
				continue
			}
			halfQ := m.Reduce(qt.Q >> 1)
			inv := m.Inv(m.Reduce(qt.Q))
			invShoup := m.ShoupPrecomp(inv)
			r := rand.New(rand.NewSource(int64(m.Q ^ qt.Q)))
			for n := 0; n <= 67; n++ {
				for _, alias := range []bool{false, true} {
					what := fmt.Sprintf("VecRescaleInto q=%d qt=%d n=%d alias=%v", m.Q, qt.Q, n, alias)
					x, top := vecRow(r, n, m.Q), vecRow(r, n, qt.Q)
					x0, top0 := append([]uint64(nil), x...), append([]uint64(nil), top...)
					dst := x
					if !alias {
						dst = vecRow(r, n, ^uint64(0))
					}
					m.VecRescaleInto(dst, x, top, qt, halfQ, inv, invShoup)
					for i := 0; i < n; i++ {
						rp := (top0[i] + qt.Q>>1) % qt.Q
						want := m.Mul(m.Sub(m.Add(x0[i], halfQ), m.Reduce(rp)), inv)
						if dst[i] != want || top[i] != top0[i] {
							t.Fatalf("%s: lane %d = %d, want %d (x %d, top %d)", what, i, dst[i], want, x0[i], top0[i])
						}
					}
					checkGuard(t, what, dst)
					checkGuard(t, what, top)
				}
			}
		}
	}
}

// TestLazySumsCloseCanonically is the property the rns Lift and Scale stand
// on: a row accumulated through the lazy kernels and closed by VecReduceInto
// is the canonical Σ w_i·a_i mod q — the same word whichever path produced the
// lazy terms.
func TestLazySumsCloseCanonically(t *testing.T) {
	for _, m := range vecModuli(t) {
		r := rand.New(rand.NewSource(int64(m.Q) + 2))
		for _, n := range []int{1, 4, 7, 64, 67} {
			const terms = 7
			var rows [terms][]uint64
			var w, ws [terms]uint64
			for i := range rows {
				rows[i] = vecRow(r, n, 1<<31)
				w[i], ws[i] = shoupConst(m, uint64(10+i))
			}
			acc := vecRow(r, n, ^uint64(0))
			m.VecScalarMulShoupLazyInto(acc, rows[0], w[0], ws[0])
			i := 1
			for ; i+1 < terms; i += 2 {
				m.VecScalarMulShoupLazyAdd2Into(acc, rows[i], rows[i+1], w[i], ws[i], w[i+1], ws[i+1])
			}
			for ; i < terms; i++ {
				m.VecScalarMulShoupLazyAddInto(acc, rows[i], w[i], ws[i])
			}
			m.VecReduceInto(acc, acc)
			for c := 0; c < n; c++ {
				var want uint64
				for i := range rows {
					want = m.Add(want, m.MulShoup(rows[i][c], w[i], ws[i]))
				}
				if acc[c] != want {
					t.Fatalf("q=%d n=%d lane %d: closed lazy sum %d, want %d", m.Q, n, c, acc[c], want)
				}
			}
		}
	}
}

// The row kernels, one 4096-lane row per op at the last prime below 2^30 —
// the paper's ring degree and residue width. Run with and without -tags
// purego to read the vector unit's gain per kernel; every one is 0 allocs/op.
// rows[0..5] hold residues, rows[6] raw words below 2^63 (a lazy sum).
func benchVec(b *testing.B, kernel func(m Modulus, rows *[7][]uint64)) {
	b.Helper()
	m := vecModuli(b)[2]
	r := rand.New(rand.NewSource(1))
	var rows [7][]uint64
	for j := range rows[:6] {
		rows[j] = vecRow(r, 4096, m.Q)
	}
	rows[6] = vecRow(r, 4096, 1<<63)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(m, &rows)
	}
}

func BenchmarkVecAddInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecAddInto(r[0], r[1], r[2]) })
}

func BenchmarkVecSubInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecSubInto(r[0], r[1], r[2]) })
}

func BenchmarkVecReduceOnceInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecReduceOnceInto(r[0], r[1]) })
}

func BenchmarkVecMulInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecMulInto(r[0], r[1], r[2]) })
}

func BenchmarkVecMulAddInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecMulAddInto(r[0], r[1], r[2]) })
}

func BenchmarkVecTensorInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecTensorInto(r[0], r[1], r[2], r[3], r[4], r[5], r[3]) })
}

func BenchmarkVecMulRawInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecMulRawInto(r[6], r[1], r[2]) })
}

func BenchmarkVecMulAddRawInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecMulAddRawInto(r[6], r[1], r[2]) })
}

func BenchmarkVecScalarMulInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecScalarMulInto(r[0], r[1], 0x9E3779B97F4A7C15) })
}

func BenchmarkVecReduceInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) { m.VecReduceInto(r[0], r[6]) })
}

// The finish pass reduces dst in place, so after the first op it reads
// canonical words: the scalar loop's branches are then always predicted,
// which flatters the purego reading if anything.
func BenchmarkVecExtendFinishInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) {
		w, ws := shoupConst(m, 1)
		m.VecExtendFinishInto(r[6], r[1], w, ws)
	})
}

// The rescale row by the last prime below 2^30 at the first prime above 2^29:
// a top prime wider than Q, so the reduction of r' into Q is not the identity.
func BenchmarkVecRescaleInto(b *testing.B) {
	mods := vecModuli(b)
	m, qt := mods[1], mods[2]
	r := rand.New(rand.NewSource(1))
	dst, x, top := vecRow(r, 4096, m.Q), vecRow(r, 4096, m.Q), vecRow(r, 4096, qt.Q)
	inv := m.Inv(m.Reduce(qt.Q))
	halfQ, invShoup := m.Reduce(qt.Q>>1), m.ShoupPrecomp(inv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VecRescaleInto(dst, x, top, qt, halfQ, inv, invShoup)
	}
}

func BenchmarkVecScalarMulShoupInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) {
		w, ws := shoupConst(m, 2)
		m.VecScalarMulShoupInto(r[0], r[1], w, ws)
	})
}

func BenchmarkVecScalarMulShoupLazyInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) {
		w, ws := shoupConst(m, 3)
		m.VecScalarMulShoupLazyInto(r[0], r[1], w, ws)
	})
}

func BenchmarkVecScalarMulShoupLazyAddInto(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) {
		w, ws := shoupConst(m, 4)
		m.VecScalarMulShoupLazyAddInto(r[6], r[1], w, ws)
	})
}

func BenchmarkVecScalarMulShoupLazyAdd2Into(b *testing.B) {
	benchVec(b, func(m Modulus, r *[7][]uint64) {
		wa, was := shoupConst(m, 5)
		wb, wbs := shoupConst(m, 6)
		m.VecScalarMulShoupLazyAdd2Into(r[6], r[1], r[2], wa, was, wb, wbs)
	})
}
