package sched

import (
	"repro/internal/hwsim"
)

// Block-level pipeline analysis. The paper applies "a block-level pipeline
// strategy and an optimized task-scheduling to increase the throughput"
// (Sec. I): while the RPAUs transform one polynomial, the Lift/Scale cores
// process another and the DMA streams key material. The Scheduler's default
// execution is sequential (each instruction's latency accumulates, matching
// the paper's per-instruction Table II accounting); this file computes how
// long the same instruction trace takes when tasks overlap across the three
// independent hardware resources, respecting data dependencies through the
// memory file.

// Unit is an exclusive hardware resource of the co-processor.
type Unit int

const (
	UnitRPAU      Unit = iota // the seven RPAUs operate as one SIMD group
	UnitLiftScale             // the parallel Lift/Scale cores
	UnitDMA                   // the DMA engine
	unitCount
)

func (u Unit) String() string {
	switch u {
	case UnitRPAU:
		return "RPAU"
	case UnitLiftScale:
		return "Lift/Scale"
	default:
		return "DMA"
	}
}

// Task is one step of a recorded trace.
type Task struct {
	Label  string
	Unit   Unit
	Cycles hwsim.Cycles
	Reads  []uint8 // memory-file slots read
	Writes []uint8 // memory-file slots written
}

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

// AnalyzeOverlap computes the analysis for a recorded trace. The trace order
// is used as the list-scheduling priority, which is always a legal order
// because it is the order the operations actually executed in.
func AnalyzeOverlap(trace []Task) Analysis {
	an := Analysis{
		Overlapped:   listSchedule(trace, true),
		CriticalPath: listSchedule(trace, false),
	}
	for _, t := range trace {
		an.Sequential += t.Cycles
		an.UnitBusy[t.Unit] += t.Cycles
	}
	return an
}

// listSchedule places the trace's tasks in trace order, each at the earliest
// cycle its RAW, WAW and WAR dependencies through the memory file allow, and
// returns the makespan. With units set a task also waits for its unit to
// finish the previous task on it; without, the result is the
// dependency-only critical path.
func listSchedule(trace []Task, units bool) hwsim.Cycles {
	var unitFree [unitCount]hwsim.Cycles
	// Dependency state per memory-file slot.
	type slotState struct {
		lastWrite hwsim.Cycles   // finish time of the last writer
		readEnds  []hwsim.Cycles // finish times of readers since that write
	}
	slots := map[uint8]*slotState{}
	get := func(s uint8) *slotState {
		st, ok := slots[s]
		if !ok {
			st = &slotState{}
			slots[s] = st
		}
		return st
	}

	var makespan hwsim.Cycles
	for _, t := range trace {
		var start hwsim.Cycles
		if units {
			start = unitFree[t.Unit]
		}
		for _, r := range t.Reads {
			if w := get(r).lastWrite; w > start {
				start = w // RAW
			}
		}
		for _, w := range t.Writes {
			st := get(w)
			if st.lastWrite > start {
				start = st.lastWrite // WAW
			}
			for _, re := range st.readEnds {
				if re > start {
					start = re // WAR
				}
			}
		}
		finish := start + t.Cycles
		unitFree[t.Unit] = finish
		for _, r := range t.Reads {
			get(r).readEnds = append(get(r).readEnds, finish)
		}
		for _, w := range t.Writes {
			st := get(w)
			st.lastWrite = finish
			st.readEnds = nil
		}
		makespan = max(makespan, finish)
	}
	return makespan
}

// unitForOp maps opcodes onto hardware resources.
func unitForOp(op hwsim.Op) Unit {
	switch op {
	case hwsim.OpLift, hwsim.OpScale:
		return UnitLiftScale
	default:
		return UnitRPAU
	}
}

// instrAccess returns the (reads, writes) slot sets of an instruction.
func instrAccess(in hwsim.Instr) (reads, writes []uint8) {
	switch in.Op {
	case hwsim.OpNTT, hwsim.OpINTT, hwsim.OpRearr:
		return []uint8{in.A}, []uint8{in.A}
	case hwsim.OpLift:
		return []uint8{in.A}, []uint8{in.A}
	case hwsim.OpScale, hwsim.OpDecomp, hwsim.OpRescale:
		return []uint8{in.A}, []uint8{in.Dst}
	case hwsim.OpCMul, hwsim.OpCAdd, hwsim.OpCSub:
		return []uint8{in.A, in.B}, []uint8{in.Dst}
	case hwsim.OpCMac:
		return []uint8{in.A, in.B, in.Dst}, []uint8{in.Dst}
	default:
		return nil, nil
	}
}
