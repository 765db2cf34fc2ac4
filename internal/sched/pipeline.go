package sched

import (
	"repro/internal/hwsim"
)

// Block-level pipeline analysis. The Scheduler's default execution is
// sequential (each instruction's latency accumulates, matching the paper's
// per-instruction Table II accounting); this file computes how long the same
// recorded trace takes when tasks overlap across the RPAUs, the Lift/Scale
// cores and the DMA, respecting data dependencies through the memory file.
// The trace's tasks, units and scheduler are hwsim's.

type (
	Task = hwsim.Task
	Unit = hwsim.Unit
)

const (
	UnitRPAU      = hwsim.UnitRPAU
	UnitLiftScale = hwsim.UnitLiftScale
	UnitDMA       = hwsim.UnitDMA
)

// Analysis is the outcome of the overlap computation.
type Analysis struct {
	// Sequential is the sum of task latencies — the paper's measurement
	// methodology (Arm issues one instruction at a time).
	Sequential hwsim.Cycles
	// Overlapped is the makespan with units running concurrently under
	// data dependencies (list scheduling in trace order).
	Overlapped hwsim.Cycles
	// CriticalPath is the dependency-only lower bound (infinite units).
	CriticalPath hwsim.Cycles
	// UnitBusy is the per-unit busy time; the bottleneck unit bounds any
	// schedule from below.
	UnitBusy [3]hwsim.Cycles
}

// Speedup returns Sequential/Overlapped.
func (a Analysis) Speedup() float64 {
	if a.Overlapped == 0 {
		return 1
	}
	return float64(a.Sequential) / float64(a.Overlapped)
}

// AnalyzeOverlap computes the analysis for a recorded trace: hwsim's list
// scheduler with the units on, then the dependency-only pass.
func AnalyzeOverlap(trace []Task) Analysis {
	var an Analysis
	_, an.Overlapped = hwsim.ListSchedule(trace, true)
	_, an.CriticalPath = hwsim.ListSchedule(trace, false)
	for _, t := range trace {
		an.Sequential += t.Cycles
		an.UnitBusy[t.Unit] += t.Cycles
	}
	return an
}
