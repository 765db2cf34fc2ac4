//go:build amd64 && !purego

package poly

import (
	"testing"

	"repro/internal/ring"
)

// TestDispatchRule pins which tables the vector kernels take: with AVX2,
// exactly those whose prime is below 2^30 and whose degree is at least 8 —
// so the differential test is known to compare two implementations there,
// and the scalar path to be the one a 31-bit prime runs.
func TestDispatchRule(t *testing.T) {
	if !ring.HasAVX2() {
		t.Skip("no AVX2 on this CPU: every table takes the scalar path")
	}
	for _, tab := range diffTables(t) {
		want := tab.Mod.Q < 1<<30 && tab.N >= 8
		a := make([]uint64, tab.N)
		if got := tab.forwardSIMD(a, a); got != want {
			t.Errorf("n=%d q=%d: forwardSIMD ran = %v, want %v", tab.N, tab.Mod.Q, got, want)
		}
		if got := tab.inverseSIMD(a); got != want {
			t.Errorf("n=%d q=%d: inverseSIMD ran = %v, want %v", tab.N, tab.Mod.Q, got, want)
		}
	}
}
