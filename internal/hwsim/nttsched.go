package hwsim

import "fmt"

// CoreAccess is one core's memory word access in one cycle of the dual-core
// NTT schedule.
type CoreAccess struct {
	Core int // 0 or 1
	Addr int // virtual word address
}

// StageReadSchedule returns, for the NTT stage with group size m (Alg. 1's
// outer loop variable, m = 2, 4, …, n), the per-cycle word addresses read by
// the two butterfly cores, following the paper's Fig. 3:
//
//   - For m up to n/4 the operand index gap is at most n/8, so core 0's
//     words all fall in the lower block and core 1's in the upper block:
//     plain sequential split.
//   - For m = n/2 the gap makes every core touch both blocks; the second
//     core's address order is inverted (it starts on the upper block while
//     core 0 starts on the lower) so the cores always hit opposite blocks.
//   - For m = n the last stage is executed one memory word at a time
//     (following [30]): sequential split again.
//
// The polynomial has n coefficients stored as words = n/2 paired words.
func StageReadSchedule(n, m int) [][]CoreAccess {
	words := n / 2
	half := words / 2
	cycles := make([][]CoreAccess, half)
	switch {
	case m == n/2:
		// Interleaved pattern: core 0 covers [0, half/2) ∪ [half, half+half/2),
		// core 1 covers the complementary quarters, phase-shifted so the two
		// cores always access different blocks.
		for c := 0; c < half; c++ {
			var a0, a1 int
			if c%2 == 0 {
				a0 = c / 2                // lower block
				a1 = words - half/2 + c/2 // upper block
			} else {
				a0 = half + c/2   // upper block
				a1 = half/2 + c/2 // lower block
			}
			cycles[c] = []CoreAccess{{Core: 0, Addr: a0}, {Core: 1, Addr: a1}}
		}
	default:
		for c := 0; c < half; c++ {
			cycles[c] = []CoreAccess{
				{Core: 0, Addr: c},
				{Core: 1, Addr: half + c},
			}
		}
	}
	return cycles
}

// ValidateNTTSchedule runs the complete forward-NTT schedule (all log2(n)
// stages) through a port tracker and returns the total butterfly-issue
// cycles together with any memory conflicts. A correct schedule — the
// property the paper's Sec. V-A3 establishes — has zero conflicts and covers
// every word exactly once per stage.
func ValidateNTTSchedule(n int) (totalCycles int, conflicts []string, err error) {
	if n < 16 || n&(n-1) != 0 {
		return 0, nil, fmt.Errorf("hwsim: schedule defined for power-of-two n ≥ 16, got %d", n)
	}
	words := n / 2
	for m := 2; m <= n; m *= 2 {
		tracker := NewPortTracker(words)
		covered := make([]bool, words)
		for _, cyc := range StageReadSchedule(n, m) {
			if len(cyc) != 2 {
				return 0, nil, fmt.Errorf("hwsim: stage m=%d cycle with %d accesses", m, len(cyc))
			}
			for _, a := range cyc {
				if a.Addr < 0 || a.Addr >= words {
					return 0, nil, fmt.Errorf("hwsim: stage m=%d address %d out of range", m, a.Addr)
				}
				if covered[a.Addr] {
					return 0, nil, fmt.Errorf("hwsim: stage m=%d reads word %d twice", m, a.Addr)
				}
				covered[a.Addr] = true
				tracker.Read(a.Addr)
				// Writes follow the read pattern a fixed pipeline depth
				// later; since the pattern is identical, checking writes in
				// the same cycle is equivalent for conflict purposes.
				tracker.Write(a.Addr)
			}
			tracker.NextCycle()
			totalCycles++
		}
		for w, ok := range covered {
			if !ok {
				return 0, nil, fmt.Errorf("hwsim: stage m=%d never accesses word %d", m, w)
			}
		}
		conflicts = append(conflicts, tracker.Conflicts...)
	}
	return totalCycles, conflicts, nil
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
