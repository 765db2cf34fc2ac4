// Package hwsim is a functional, cycle-level simulator of the paper's
// domain-specific co-processor: the instruction-set architecture and its
// cost table, the Fig.-3 conflict-free BRAM access schedule of the residue
// polynomial arithmetic units' (RPAUs') dual butterfly cores, the DMA
// transfer model, the Arm-side software cost model, and analytic
// resource/power/frequency models.
//
// Data and cost are held apart. Exec runs an instruction on the poly/rns
// kernels the software evaluators use (results are bit-exact against
// internal/fv and internal/ckks), then charges its entry in one cost table,
// Coprocessor.Cycles (cost.go): a function of the opcode, the co-processor's
// shape and Timing — never of coefficient values — derived from the dataflow
// the RTL implements: butterflies per cycle, pipeline fill, block-pipeline
// bottlenecks and memory-port limits. A small set of calibration constants,
// all defined in this file and justified in DESIGN.md §6, absorbs the RTL
// details the paper does not publish (pipeline depths, dispatch latency, DMA
// descriptor overhead).
package hwsim

// Clock frequencies of the three clock domains (paper Sec. VI-A).
const (
	FPGAClockHz = 200e6 // co-processor logic
	DMAClockHz  = 250e6 // DMA engine
	ArmClockHz  = 1.2e9 // Arm cores; the paper's cycle counts are measured here
	// TradClockHz is the clock of the slower, traditional-CRT co-processor
	// (paper Sec. VI-C: "At 225 MHz clock...").
	TradClockHz = 225e6
)

// LiftScaleCores is the number of parallel Lift/Scale cores ("Lift q→Q
// (2 cores)", Table II): the cost table and the resource model both read it.
const LiftScaleCores = 2

// Timing holds the calibration constants of the cycle model. The defaults
// reproduce the paper's Table I/II within ~12% (see EXPERIMENTS.md for the
// row-by-row comparison).
type Timing struct {
	// ButterflyPipelineDepth is the register depth of one butterfly core's
	// multiply → reduce → add/sub pipeline; each NTT stage pays it once as
	// fill before the first result emerges.
	ButterflyPipelineDepth int

	// InstrDispatchCycles is the fixed FPGA-cycle overhead per co-processor
	// instruction: Arm write of the instruction word, decode, memory-file
	// port switch, and completion signalling back to the Arm.
	InstrDispatchCycles int

	// StageSyncCycles is the per-stage turnaround of the NTT unit: pipeline
	// drain at the stage barrier, twiddle-ROM bank switch, and the address
	// generator reprogramming for the next stage's access pattern.
	StageSyncCycles int

	// INTTScaleExtraCycles covers the inverse transform's final n^-1 scaling
	// pass and its deeper multiply-after-subtract pipeline.
	INTTScaleExtraCycles int

	// LiftBlockCyclesPerCoeff is the block-pipeline bottleneck of the HPS
	// Lift/Scale units: seven cycles per coefficient, because the widest
	// block emits the seven new residues one per cycle (paper Sec. V-B2).
	LiftBlockCyclesPerCoeff int

	// LiftPipelineFill is the fill and stream-in/out latency of the 5-block
	// Lift pipeline: the unit reads its operands from the memory file in the
	// linear layout and writes the seven result rows back, which costs a
	// fixed stream latency on top of the per-coefficient bottleneck.
	LiftPipelineFill int

	// DivBitsPerCycle models the traditional architecture's long-division
	// block: a reciprocal multiplication retiring ~4.3 bits of
	// dividend+reciprocal width per cycle (calibrated so that the 1-core
	// traditional Lift and Scale take 1.68 ms and 4.3 ms at 225 MHz,
	// Sec. VI-C).
	DivBitsPerCycle float64

	// DMASetupSeconds is the per-descriptor DMA overhead; DMABytesPerSec the
	// streaming bandwidth (calibrated against Table III).
	DMASetupSeconds float64
	DMABytesPerSec  float64

	// ArmSWAddCyclesPerCoeff is the Arm cycles one 180-bit coefficient
	// addition costs in the baremetal software Add (calibrated against
	// Table I's "Add in SW": the paper's software works on multi-precision
	// coefficients, not RNS residues).
	ArmSWAddCyclesPerCoeff int
}

// DefaultTiming returns the calibrated constants.
func DefaultTiming() Timing {
	return Timing{
		ButterflyPipelineDepth:  8,
		InstrDispatchCycles:     550,
		StageSyncCycles:         130,
		INTTScaleExtraCycles:    2048,
		LiftBlockCyclesPerCoeff: 7,
		LiftPipelineFill:        1600,
		DivBitsPerCycle:         4.3,
		DMASetupSeconds:         1.33e-6,
		DMABytesPerSec:          1.316e9,
		ArmSWAddCyclesPerCoeff:  6674,
	}
}

// Cycles is a cycle count in the FPGA clock domain.
type Cycles uint64

// Seconds converts FPGA cycles to seconds.
func (c Cycles) Seconds() float64 { return float64(c) / FPGAClockHz }

// Micros converts FPGA cycles to microseconds.
func (c Cycles) Micros() float64 { return c.Seconds() * 1e6 }

// ArmCycles converts FPGA cycles to the Arm cycle-counter view the paper's
// tables report (the Arm runs 6x faster than the FPGA fabric).
func (c Cycles) ArmCycles() uint64 {
	return uint64(float64(c) * ArmClockHz / FPGAClockHz)
}

// SecondsToArmCycles converts wall time to Arm cycle counts.
func SecondsToArmCycles(s float64) uint64 { return uint64(s * ArmClockHz) }
