package hwsim

import (
	"fmt"
	"io"
)

// Block-level overlap (paper Sec. I: "a block-level pipeline strategy and an
// optimized task-scheduling to increase the throughput"): while the RPAUs
// transform one polynomial, the Lift/Scale cores process another and the DMA
// streams key material. One list scheduler places tasks on the three units;
// the overlap analysis of a recorded instruction trace (sched.AnalyzeOverlap)
// and the double-buffered stream below are both its callers.

// Unit is an exclusive hardware resource of the co-processor.
type Unit int

const (
	UnitRPAU      Unit = iota // the seven RPAUs operate as one SIMD group
	UnitLiftScale             // the parallel Lift/Scale cores
	UnitDMA                   // the DMA engine
	unitCount
)

func (u Unit) String() string { return [unitCount]string{"RPAU", "Lift/Scale", "DMA"}[u] }

// Task is one step of a schedule: an instruction or a transfer, the unit it
// occupies, and the memory-file slots it reads and writes.
type Task struct {
	Label  string
	Unit   Unit
	Cycles Cycles
	Reads  []uint8
	Writes []uint8
}

// Span is where the list scheduler placed a task. Stall is how long the
// task waited for a dependency after its unit became free.
type Span struct {
	Start, Finish, Stall Cycles
}

// ListSchedule places the tasks in order, each at the earliest cycle its
// RAW, WAW and WAR dependencies through the memory-file slots allow, and
// returns each task's span and the makespan. With units set a task also
// waits for its unit to finish the task before it there — a zero-cycle task
// does not occupy its unit; without, the makespan is the dependency-only
// critical path. Trace order is always a legal priority: it is the order the
// operations were issued in.
func ListSchedule(tasks []Task, units bool) (spans []Span, makespan Cycles) {
	var unitFree [unitCount]Cycles
	// Per slot, the finish of its last writer and of its latest reader. A
	// writer waits for every reader so far: the readers before the last
	// write finished before that write did.
	var written, read [256]Cycles
	spans = make([]Span, len(tasks))
	for k, t := range tasks {
		var free Cycles
		if units {
			free = unitFree[t.Unit]
		}
		start := free
		for _, s := range t.Reads {
			start = max(start, written[s]) // RAW
		}
		for _, s := range t.Writes {
			start = max(start, written[s], read[s]) // WAW, WAR
		}
		finish := start + t.Cycles
		if t.Cycles > 0 {
			unitFree[t.Unit] = finish
		}
		for _, s := range t.Reads {
			read[s] = max(read[s], finish)
		}
		for _, s := range t.Writes {
			written[s] = finish
		}
		spans[k] = Span{Start: start, Finish: finish, Stall: start - free}
		makespan = max(makespan, finish)
	}
	return spans, makespan
}

// Double-buffered operand streaming (paper Sec. I, Sec. V-D). The serial
// accounting charges every operation's operand DMA, compute, and result DMA
// back to back; with a shadow operand bank in the memory file the DMA engine
// can prefetch operation i+1's operands while the RPAUs work on operation i,
// hiding min(dma_{i+1}, compute_i) cycles per boundary. This file models that
// schedule exactly: one DMA engine, one compute pipeline, `banks` operand
// banks, and dependency hazards through the memory file, as a task list for
// ListSchedule. Step i is its load (DMA, writes bank i mod banks), then the
// previous step's store (DMA, reads the accumulator, writes the host
// buffer), then its compute (RPAU, reads the bank, writes the accumulator).
// Each rule of the Fig. 10 memory file is one of those slot accesses:
//
//   - The DMA engine serializes all transfers in issue order: the prefetch
//     load of step i+1 is issued when step i's compute starts, step i's
//     result store when its compute ends.
//   - A load targets bank i mod banks and must wait until the previous user
//     of that bank — step i-banks — has finished computing (WAR through the
//     operand slots). With banks = 1 this degenerates to the serial schedule.
//   - Compute of step i needs its own load done (RAW) and the previous
//     step's result store done: the store reads the shared accumulator slots
//     the next compute will overwrite (WAR through the scratch slots).
//   - A step marked DependsOnPrev consumes the previous step's result, so
//     its load reads the host buffer and is issued after that store (RAW
//     through DDR) — a chained stream gets zero overlap.
//
// For a hazard-free stream on banks ≥ 2 the pipelined makespan is exactly
//
//	Serial − Σ_{i≥1} min(load_i, compute_{i-1})
//
// which TestStreamSavingFormula proves per-trace against this simulation.

// StreamStep is one operation of a double-buffered stream: an operand
// prefetch DMA, a compute phase (which, like Table I's "Mult in HW" row,
// folds in any key streaming the operation itself performs), and a result
// readback DMA.
type StreamStep struct {
	Label string

	LoadBytes int // operand DMA into this step's bank
	LoadChunk int // 0 = single transfer (Table III)

	Compute Cycles

	StoreBytes int // result DMA back to the host
	StoreChunk int

	// DependsOnPrev marks a RAW hazard through the host: this step's
	// operands include the previous step's result, so the prefetch must
	// wait for that result's store.
	DependsOnPrev bool
}

// StepTiming is the scheduled timeline of one step.
type StepTiming struct {
	LoadStart, LoadEnd       Cycles
	ComputeStart, ComputeEnd Cycles
	StoreStart, StoreEnd     Cycles

	// LoadStall is how long the load waited beyond DMA-engine availability
	// for a hazard (bank WAR, or host RAW for DependsOnPrev steps).
	LoadStall Cycles
	// ComputeStall is the compute pipeline's idle time before this step:
	// ComputeStart − previous ComputeEnd (or − 0 for the first step). A
	// compute-bound stream has zero stall everywhere past step 0.
	ComputeStall Cycles
}

// StreamTiming is the outcome of a stream simulation.
type StreamTiming struct {
	// Serial is the back-to-back sum — the per-instruction accounting the
	// serial Scheduler charges.
	Serial Cycles
	// Pipelined is the makespan of the double-buffered schedule.
	Pipelined Cycles
	// Saved = Serial − Pipelined.
	Saved Cycles
	// LowerBound is the dependency floor no schedule can beat: the computes
	// serialize behind the first load and ahead of the last store, and the
	// single DMA engine must move every byte.
	LowerBound Cycles
	Steps      []StepTiming
}

// HiddenFrac returns the fraction of total DMA time the schedule hid under
// compute: Saved / (total load+store cycles).
func (t StreamTiming) HiddenFrac() float64 {
	dma := t.Serial
	for _, s := range t.Steps {
		dma -= s.ComputeEnd - s.ComputeStart
	}
	if dma == 0 {
		return 0
	}
	return float64(t.Saved) / float64(dma)
}

// SimulateStream schedules the steps on one DMA engine and one compute
// pipeline with the given number of operand banks (2 = double buffering,
// 1 = the serial schedule) and returns the exact cycle timeline.
func (d DMA) SimulateStream(steps []StreamStep, banks int) StreamTiming {
	n := len(steps)
	out := StreamTiming{Steps: make([]StepTiming, n)}
	if n == 0 {
		return out
	}
	// More banks than steps never stall a load; the two slots past the banks
	// are the accumulator and the host buffer.
	banks = max(1, min(banks, n, 254))
	acc, host := uint8(banks), uint8(banks+1)

	tasks := make([]Task, 0, 3*n)
	at := make([]struct{ load, compute, store int }, n)
	emit := func(pos *int, t Task) {
		*pos = len(tasks)
		tasks = append(tasks, t)
	}
	store := func(k int) {
		cyc := d.FPGACycles(Transfer{Bytes: steps[k].StoreBytes, ChunkSize: steps[k].StoreChunk})
		emit(&at[k].store, Task{Unit: UnitDMA, Cycles: cyc, Reads: []uint8{acc}, Writes: []uint8{host}})
	}
	for i, s := range steps {
		bank := []uint8{uint8(i % banks)}
		load := Task{Unit: UnitDMA, Cycles: d.FPGACycles(Transfer{Bytes: s.LoadBytes, ChunkSize: s.LoadChunk}), Writes: bank}
		raw := i > 0 && s.DependsOnPrev
		if raw {
			store(i - 1)
			load.Reads = []uint8{host}
		}
		emit(&at[i].load, load)
		if i > 0 && !raw {
			store(i - 1)
		}
		emit(&at[i].compute, Task{Unit: UnitRPAU, Cycles: s.Compute, Reads: bank, Writes: []uint8{acc}})
	}
	store(n - 1)

	spans, makespan := ListSchedule(tasks, true)
	var computeEnd Cycles
	for i, p := range at {
		l, c, s := spans[p.load], spans[p.compute], spans[p.store]
		out.Steps[i] = StepTiming{
			LoadStart: l.Start, LoadEnd: l.Finish,
			ComputeStart: c.Start, ComputeEnd: c.Finish,
			StoreStart: s.Start, StoreEnd: s.Finish,
			LoadStall: l.Stall, ComputeStall: c.Start - computeEnd,
		}
		computeEnd = c.Finish
	}
	var dma Cycles
	for _, t := range tasks {
		out.Serial += t.Cycles
		if t.Unit == UnitDMA {
			dma += t.Cycles
		}
	}
	out.Pipelined = makespan
	out.Saved = out.Serial - out.Pipelined
	first, last := tasks[at[0].load].Cycles, tasks[at[n-1].store].Cycles
	out.LowerBound = max(first+out.Serial-dma+last, dma)
	return out
}

// RenderTableIIIPipelined extends the paper's Table III transfer-granularity
// story to the overlapped schedule: for each DMA chunk size it reports the
// serial and double-buffered cost of a stream of Mult operations, in the
// text style of RenderFig3. loadBytes/storeBytes/compute describe one stream
// step (cmd/hetables passes what one Mult measures: 4 operand polynomials
// in, the report's compute cycles — 829 918 at the paper set — 2 result
// polynomials out); ops is the stream length.
func RenderTableIIIPipelined(w io.Writer, d DMA, loadBytes, storeBytes int, compute Cycles, ops int, chunks []int) error {
	if ops < 2 {
		return fmt.Errorf("hwsim: pipelined Table III needs a stream of ≥ 2 ops")
	}
	fmt.Fprintf(w, "Table III (extended) — transfer granularity under the double-buffered stream\n")
	fmt.Fprintf(w, "%d Mult ops; per op: %d operand bytes in, %d result bytes out, %d compute cycles\n\n",
		ops, loadBytes, storeBytes, compute)
	fmt.Fprintf(w, "  %-18s %14s %14s %9s %8s\n", "chunk", "serial cyc", "pipelined cyc", "saved", "hidden")
	for _, chunk := range chunks {
		steps := make([]StreamStep, ops)
		for i := range steps {
			steps[i] = StreamStep{
				LoadBytes: loadBytes, LoadChunk: chunk,
				Compute:    compute,
				StoreBytes: storeBytes, StoreChunk: chunk,
			}
		}
		t := d.SimulateStream(steps, 2)
		name := "single transfer"
		if chunk > 0 {
			name = fmt.Sprintf("%d-byte chunks", chunk)
		}
		fmt.Fprintf(w, "  %-18s %14d %14d %8.1f%% %7.1f%%\n",
			name, t.Serial, t.Pipelined,
			100*float64(t.Saved)/float64(t.Serial), 100*t.HiddenFrac())
	}
	fmt.Fprintf(w, "\nthe single-transfer layout wins twice: less setup overhead serially, and the\n")
	fmt.Fprintf(w, "shorter DMA phase hides completely under compute once the stream is pipelined\n")
	return nil
}
