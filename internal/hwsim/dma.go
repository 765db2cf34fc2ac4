package hwsim

// DMA models the AXI DMA between the DDR memory and the co-processor's
// interfacing unit (paper Sec. V-D, Table III): a fixed per-descriptor setup
// cost plus streaming at the calibrated bandwidth. The paper's software
// keeps ciphertext coefficients contiguous precisely so a transfer needs one
// descriptor ("we use single transfer to achieve the minimum overhead").
type DMA struct {
	Timing Timing
}

// Transfer describes one host↔co-processor data movement.
type Transfer struct {
	Bytes     int
	ChunkSize int    // 0 = single transfer
	Label     string // for reports ("send ct", "rlk stream", …)
}

// Seconds returns the wall-clock duration of the transfer.
func (d DMA) Seconds(t Transfer) float64 {
	chunk := t.ChunkSize
	if chunk <= 0 || chunk >= t.Bytes {
		chunk = t.Bytes
	}
	if t.Bytes == 0 {
		return 0
	}
	chunks := (t.Bytes + chunk - 1) / chunk
	return float64(chunks)*d.Timing.DMASetupSeconds + float64(t.Bytes)/d.Timing.DMABytesPerSec
}

// Task returns the transfer as a task of the overlap trace: its listing line,
// the DMA unit, its latency and the slots it reads and writes.
func (t Transfer) Task(cycles Cycles, reads, writes []uint8) Task {
	return Task{Label: "DMA " + t.Label, Unit: UnitDMA, Cycles: cycles, Reads: reads, Writes: writes}
}

// FPGACycles returns the duration expressed in co-processor clock cycles,
// which is how the simulator accounts transfer time inside a program.
func (d DMA) FPGACycles(t Transfer) Cycles {
	return Cycles(d.Seconds(t) * FPGAClockHz)
}

// ArmCycles returns the duration in the Arm cycle-counter view.
func (d DMA) ArmCycles(t Transfer) uint64 {
	return SecondsToArmCycles(d.Seconds(t))
}

// PolyBytes returns the transfer size of one residue polynomial set: rows
// residue polynomials of n coefficients, 4 bytes per 30-bit coefficient.
// For the paper set one R_q polynomial is 6·4096·4 = 98,304 bytes — the
// unit of Table III.
func PolyBytes(n, rows int) int { return n * rows * 4 }
