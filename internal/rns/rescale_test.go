package rns_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ckks"
	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
)

const rescaleGuard = 0xDEADBEEFCAFEF00D

// guardedRows returns rows of n lanes below each modulus (lanes pinned at 0
// and q−1 among random ones), each followed by guard words.
func guardedRows(r *rand.Rand, mods []ring.Modulus, n int) poly.RNSPoly {
	p := poly.RNSPoly{Rows: make([]poly.Poly, len(mods))}
	for j, m := range mods {
		row := make([]uint64, n+4)
		for i := range row {
			switch {
			case i >= n:
				row[i] = rescaleGuard
			case i%5 == 0:
				row[i] = 0
			case i%5 == 3:
				row[i] = m.Q - 1
			default:
				row[i] = r.Uint64() % m.Q
			}
		}
		p.Rows[j] = poly.Poly{Mod: m, Coeffs: row[:n]}
	}
	return p
}

// TestRescaleRowMatchesScalarFormula holds the rescale row — the kernel both
// ckks.Evaluator and the co-processor's Rescale unit run — to its formula in
// the scalar Modulus methods, y_j = (x_j + ⌊q_t/2⌋ − ((x_t + ⌊q_t/2⌋) mod q_t))
// · q_t⁻¹ mod q_j, at every level of ckks.PaperConfig: the chain rescaler at
// each top index and each level's keyswitch ModDown rescaler, at lengths
// 0…67, with out disjoint from x and aliasing x's prefix rows, and nothing
// written past a row's end.
func TestRescaleRowMatchesScalarFormula(t *testing.T) {
	params, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	chains := [][]ring.Modulus{params.QMods}
	rescalers := []*rns.Rescaler{params.Rescaler}
	for l, mods := range params.KSMods {
		chains = append(chains, mods)
		rescalers = append(rescalers, params.RescalerKS[l])
	}
	r := rand.New(rand.NewSource(1))
	for c, mods := range chains {
		for top := 1; top < len(mods); top++ {
			for n := 0; n <= 67; n++ {
				for _, alias := range []bool{false, true} {
					what := fmt.Sprintf("chain %d top %d n=%d alias=%v", c, top, n, alias)
					x := guardedRows(r, mods[:top+1], n)
					before := make([][]uint64, len(x.Rows))
					for j, row := range x.Rows {
						before[j] = append([]uint64(nil), row.Coeffs...)
					}
					out := poly.RNSPoly{Rows: x.Rows[:top]}
					if !alias {
						out = guardedRows(r, mods[:top], n)
					}
					rescalers[c].RescaleInto(nil, x, out)

					qt := mods[top].Q
					for j, m := range mods[:top] {
						inv := m.Inv(m.Reduce(qt))
						for i := 0; i < n; i++ {
							rp := (before[top][i] + qt/2) % qt
							want := m.Mul(m.Sub(m.Add(before[j][i], m.Reduce(qt/2)), m.Reduce(rp)), inv)
							if got := out.Rows[j].Coeffs[i]; got != want {
								t.Fatalf("%s: row %d lane %d = %d, want %d", what, j, i, got, want)
							}
						}
					}
					for j, row := range append(out.Rows, x.Rows[top]) {
						for i, g := range row.Coeffs[n:cap(row.Coeffs)] {
							if g != rescaleGuard {
								t.Fatalf("%s: row %d guard word %d overwritten with %#x", what, j, i, g)
							}
						}
					}
					for i, v := range x.Rows[top].Coeffs {
						if v != before[top][i] {
							t.Fatalf("%s: top row lane %d modified", what, i)
						}
					}
				}
			}
		}
	}
}
