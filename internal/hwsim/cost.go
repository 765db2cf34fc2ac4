package hwsim

// The cost table. What an instruction costs is a function of its opcode, the
// co-processor's shape (n, the Lift/Scale variant, the basis widths the
// traditional division runs over) and Timing — never of the memory file's
// contents. Exec runs the kernels and then charges exactly Cycles(in) (the
// guarded path adds an injected stall on top), so what a program costs can be
// read off its listing without executing it. The paper's Table II is this
// table at the paper set; every cycle formula of the instruction set lives in
// this file.

// Cycles returns the nominal latency of in on c, dispatch included. It reads
// no memory-file data.
func (c *Coprocessor) Cycles(in Instr) Cycles {
	t := c.Timing
	var cyc Cycles
	switch in.Op {
	case OpNTT:
		cyc = NTTCycles(c.N, t)
	case OpINTT:
		// The inverse adds its final n^-1 scaling pass.
		cyc = NTTCycles(c.N, t) + Cycles(t.INTTScaleExtraCycles)
	case OpCMul, OpCAdd, OpCSub, OpCMac:
		cyc = coeffWiseCycles(c.N, t)
	case OpRearr, OpDecomp:
		// Table II's "Memory Rearrange": the conversion between the linear
		// order the Lift/Scale units stream and the paired two-block layout the
		// NTT needs, one coefficient per cycle through the single rearrangement
		// port. A WordDecomp digit streams through the scalar multiplier at
		// that port, so it costs the same pass.
		cyc = Cycles(c.N + t.ButterflyPipelineDepth)
	case OpLift, OpScale:
		if c.Variant == VariantTraditional {
			cyc = c.TraditionalCycles(in.Op, t.LiftScaleCores)
		} else {
			cyc = hpsCycles(in.Op, c.N, t)
		}
	case OpRescale:
		// Each output coefficient needs the centered top residue (one
		// subtract/compare lane) and one Shoup multiply-accumulate lane; the
		// two cannot fuse because the centered residue serves every output
		// row, so the polynomial streams through the coefficient-wise datapath
		// twice.
		cyc = 2 * coeffWiseCycles(c.N, t)
	}
	return cyc + c.Dispatch()
}

// Dispatch is what every instruction pays on top of its compute latency: the
// Arm's write of the instruction word, decode, the memory-file port switch
// and completion signalling back to the Arm.
func (c *Coprocessor) Dispatch() Cycles { return Cycles(c.Timing.InstrDispatchCycles) }

// NTTCycles is one forward NTT over one residue polynomial on an RPAU's two
// butterfly cores over the paired-coefficient dual-block memory, twiddles in
// ROM (no bubble cycles, Sec. V-A4): log2(n) stages of n/4 butterfly issues
// per core, plus pipeline fill and stage turnaround per stage. The RPAUs
// transform their rows concurrently, so one row's latency is the
// instruction's.
func NTTCycles(n int, t Timing) Cycles {
	return Cycles(log2(n) * (n/4 + t.ButterflyPipelineDepth + t.StageSyncCycles))
}

// NaiveNTTCycles is the ablation where coefficients are stored unpaired:
// every butterfly needs two word reads, and with one read port per block the
// cores stall every other cycle — the transform takes twice as long. This is
// the penalty the paired layout of [30] removes.
func NaiveNTTCycles(n int, t Timing) Cycles {
	return Cycles(log2(n) * (n/2 + t.ButterflyPipelineDepth + t.StageSyncCycles))
}

// BubbleNTTCycles is the ablation where twiddle factors are computed on the
// fly instead of stored in ROM: the butterflies' dependency on the twiddles
// inserts pipeline bubbles costing ~20% of the cycles, the penalty the paper
// reports for [20] (Sec. V-A4).
func BubbleNTTCycles(n int, t Timing) Cycles { return NTTCycles(n, t) * 6 / 5 }

// coeffWiseCycles is any coefficient-wise pass over one residue polynomial:
// the two arithmetic cores retire two result coefficients per cycle, bounded
// by the 8-coefficient/cycle memory interface (2 words read for each operand,
// 1 word written).
func coeffWiseCycles(n int, t Timing) Cycles { return Cycles(n/2 + t.ButterflyPipelineDepth) }

// hpsCycles is the HPS Lift or Scale of one polynomial. The Lift (Fig. 6) is a
// five-block pipeline whose bottleneck block emits the seven new residues of a
// coefficient in seven cycles; the parallel cores stream disjoint
// coefficients. The Scale (Figs. 8 and 9) runs its Blocks 1–3 at the same
// bottleneck and then streams through the Lift pipeline for the p→q base
// switch; the two phases overlap block-wise, so it costs a Lift plus a short
// extra fill for the second phase (Table II: 82.7 µs vs 82.6 µs).
func hpsCycles(op Op, n int, t Timing) Cycles {
	cores := t.LiftScaleCores
	cyc := Cycles((n*t.LiftBlockCyclesPerCoeff+cores-1)/cores + t.LiftPipelineFill)
	if op == OpScale {
		cyc += 200
	}
	return cyc
}

// TraditionalCycles is the traditional (Figs. 5 and 8) Lift or Scale of one
// polynomial on `cores` parallel cores, dispatch excluded. Both are dominated
// by the long division, modelled as a reciprocal multiplication retiring
// Timing.DivBitsPerCycle bits of dividend plus reciprocal width per cycle.
// The Lift divides a sum of products of log q + 35 bits by q with a
// reciprocal of ~log q bits; the Scale's dividend is the full-basis
// reconstruction times t, and its reciprocal needs half as many bits again
// (the paper: precision > 571 for a 390-bit Q), making it ~4x the Lift's
// division (Sec. V-C). The co-processor charges it on Timing.LiftScaleCores
// cores; Sec. VI-C quotes the one-core figure.
func (c *Coprocessor) TraditionalCycles(op Op, cores int) Cycles {
	bits := 2*c.liftBits + 35 + 6
	if op == OpScale {
		bits = c.scaleBits + 35 + c.scaleBits + c.scaleBits/2
	}
	perCoeff := int(float64(bits)/c.Timing.DivBitsPerCycle + 0.5)
	cores = max(cores, 1)
	return Cycles((c.N*perCoeff + cores - 1) / cores)
}
