package hwsim

import (
	"fmt"
	"io"
)

// Double-buffered operand streaming (paper Sec. I, Sec. V-D). The serial
// accounting charges every operation's operand DMA, compute, and result DMA
// back to back; with a shadow operand bank in the memory file the DMA engine
// can prefetch operation i+1's operands while the RPAUs work on operation i,
// hiding min(dma_{i+1}, compute_i) cycles per boundary. This file models that
// schedule exactly: one DMA engine, one compute pipeline, `banks` operand
// banks, and dependency hazards through the memory file.
//
// Model rules (each is a real hazard of the Fig. 10 memory file):
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
//     its load cannot even be issued until that result has been stored back
//     to the host (RAW through DDR) — a chained stream gets zero overlap.
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
	if banks < 1 {
		banks = 1
	}
	n := len(steps)
	out := StreamTiming{Steps: make([]StepTiming, n)}
	st := out.Steps

	loadCyc := make([]Cycles, n)
	storeCyc := make([]Cycles, n)
	var computeSum, dmaSum Cycles
	for i, s := range steps {
		loadCyc[i] = d.FPGACycles(Transfer{Bytes: s.LoadBytes, ChunkSize: s.LoadChunk})
		storeCyc[i] = d.FPGACycles(Transfer{Bytes: s.StoreBytes, ChunkSize: s.StoreChunk})
		out.Serial += loadCyc[i] + s.Compute + storeCyc[i]
		computeSum += s.Compute
		dmaSum += loadCyc[i] + storeCyc[i]
	}
	if n == 0 {
		return out
	}

	var dmaFree, computeFree Cycles
	// store schedules step k's result readback on the DMA engine.
	store := func(k int) {
		if k < 0 {
			return
		}
		start := maxCycles(dmaFree, st[k].ComputeEnd)
		st[k].StoreStart = start
		st[k].StoreEnd = start + storeCyc[k]
		if storeCyc[k] > 0 {
			dmaFree = st[k].StoreEnd
		}
	}

	for i := range steps {
		// Issue order on the DMA engine is L_i then S_{i-1}: the prefetch is
		// issued when compute i-1 starts, the store when it ends. A RAW step
		// inverts that — its load cannot be issued until the result is home.
		raw := i > 0 && steps[i].DependsOnPrev
		if raw {
			store(i - 1)
		}
		var hazard Cycles
		if i-banks >= 0 && st[i-banks].ComputeEnd > hazard {
			hazard = st[i-banks].ComputeEnd // bank WAR
		}
		if raw && st[i-1].StoreEnd > hazard {
			hazard = st[i-1].StoreEnd // host RAW
		}
		start := dmaFree
		if hazard > start {
			st[i].LoadStall = hazard - start
			start = hazard
		}
		st[i].LoadStart = start
		st[i].LoadEnd = start + loadCyc[i]
		if loadCyc[i] > 0 {
			dmaFree = st[i].LoadEnd
		}
		if !raw {
			store(i - 1)
		}

		cs := maxCycles(st[i].LoadEnd, computeFree)
		if i > 0 && st[i-1].StoreEnd > cs {
			cs = st[i-1].StoreEnd // scratch-slot WAR against the readback
		}
		st[i].ComputeStall = cs - computeFree
		st[i].ComputeStart = cs
		st[i].ComputeEnd = cs + steps[i].Compute
		computeFree = st[i].ComputeEnd
	}
	store(n - 1)

	for _, s := range st {
		if s.StoreEnd > out.Pipelined {
			out.Pipelined = s.StoreEnd
		}
	}
	out.Saved = out.Serial - out.Pipelined
	out.LowerBound = maxCycles(loadCyc[0]+computeSum+storeCyc[n-1], dmaSum)
	return out
}

func maxCycles(a, b Cycles) Cycles {
	if a > b {
		return a
	}
	return b
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
