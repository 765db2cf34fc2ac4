package hwsim

// Analytic FPGA resource model (paper Table IV). Every leaf circuit block
// carries a LUT/FF/BRAM/DSP cost; the co-processor total is the sum over the
// block inventory implied by the configuration (RPAUs × butterfly cores,
// Lift/Scale MAC arrays, twiddle ROMs, memory file). The per-block constants
// are calibrated once against the paper's Vivado utilization report for the
// ZCU102 and documented here; the model's value is that it scales
// compositionally when the configuration changes (Table V, ablations).

// Resources is a LUT/FF/BRAM36/DSP bundle.
type Resources struct {
	LUT  int
	FF   int
	BRAM int
	DSP  int
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.LUT + o.LUT, r.FF + o.FF, r.BRAM + o.BRAM, r.DSP + o.DSP}
}

// Scale returns r with every field multiplied by k.
func (r Resources) Scale(k int) Resources {
	return Resources{r.LUT * k, r.FF * k, r.BRAM * k, r.DSP * k}
}

// ZCU102 capacity (Zynq UltraScale+ XCZU9EG).
var ZCU102 = Resources{LUT: 274080, FF: 548160, BRAM: 912, DSP: 2520}

// Utilization returns r as a percentage of the device capacity.
func (r Resources) Utilization(dev Resources) (lut, ff, bram, dsp float64) {
	pct := func(a, b int) float64 { return 100 * float64(a) / float64(b) }
	return pct(r.LUT, dev.LUT), pct(r.FF, dev.FF), pct(r.BRAM, dev.BRAM), pct(r.DSP, dev.DSP)
}

// Per-block costs. A 30×30 multiplier maps to 4 DSP48E2 slices; the
// sliding-window reduction, adders and control are LUT/FF fabric; a residue
// polynomial of 4096 paired 30-bit coefficients occupies 4 BRAM36K (paper
// Sec. V-A2), and each twiddle ROM (4096 × 30-bit constants) the same.
var (
	butterflyCore = Resources{LUT: 1500, FF: 700, DSP: 4}    // mult + reduce + add/sub + pipeline
	macCore       = Resources{LUT: 616, FF: 230, DSP: 4}     // Fig. 7 multiply(-accumulate) block
	nttControl    = Resources{LUT: 900, FF: 300}             // address generator + schedule FSM
	liftControl   = Resources{LUT: 2400, FF: 900}            // block-pipeline control + buffers
	coprocControl = Resources{LUT: 3200, FF: 1400}           // instruction decode, memory-file muxing
	interfaceUnit = Resources{LUT: 6600, FF: 9000, BRAM: 39} // DMA + interfacing units (shared)
)

// ResourceConfig describes a co-processor configuration for the resource model.
type ResourceConfig struct {
	NumRPAUs       int // 7 for the paper set
	PrimesTotal    int // 13
	ButterflyCores int // per RPAU: 2
	LiftScaleCores int // parallel Lift/Scale cores: 2
	MemFileSlots   int // residue-polynomial slots in the memory file
	N              int // ring degree (BRAM sizing)
}

// PaperResourceConfig is the configuration of the implemented design.
func PaperResourceConfig() ResourceConfig {
	return ResourceConfig{
		NumRPAUs:       7,
		PrimesTotal:    13,
		ButterflyCores: 2,
		LiftScaleCores: LiftScaleCores,
		MemFileSlots:   66,
		N:              4096,
	}
}

// bramPerResiduePoly returns the BRAM36K count of one residue polynomial
// buffer: n paired 30-bit coefficients (n/1024 BRAM36K at 36-bit words).
func bramPerResiduePoly(n int) int {
	b := n / 1024
	if b < 1 {
		b = 1
	}
	return b
}

// CoprocessorResources returns the resource estimate for one co-processor.
func CoprocessorResources(cfg ResourceConfig) Resources {
	polyBRAM := bramPerResiduePoly(cfg.N)

	var total Resources
	// RPAUs: butterfly cores + control per unit.
	rpau := butterflyCore.Scale(cfg.ButterflyCores).Add(nttControl)
	total = total.Add(rpau.Scale(cfg.NumRPAUs))
	// Twiddle ROMs: forward + inverse per prime.
	total.BRAM += cfg.PrimesTotal * 2 * polyBRAM
	// Lift cores: 7 parallel MACs in Block 2 plus the lighter blocks
	// (≈ 3 MAC-equivalents) and control.
	liftCore := macCore.Scale(10).Add(liftControl)
	total = total.Add(liftCore.Scale(cfg.LiftScaleCores))
	// Scale cores: Blocks 1–3 are MAC arrays of similar size.
	scaleCore := macCore.Scale(9).Add(liftControl)
	total = total.Add(scaleCore.Scale(cfg.LiftScaleCores))
	// Memory file.
	total.BRAM += cfg.MemFileSlots * polyBRAM
	// Lift/Scale constant ROMs and in/out buffers.
	total.BRAM += 20
	// Control plane.
	total = total.Add(coprocControl)
	return total
}

// SystemResources returns the two-co-processor system including the DMA and
// interfacing units (Table IV's first row).
func SystemResources(cfg ResourceConfig, coprocessors int) Resources {
	return CoprocessorResources(cfg).Scale(coprocessors).Add(interfaceUnit)
}

// Power model (paper Sec. VI-C): 5.3 W static; 2.2 W dynamic for one active
// co-processor stream and 3.4 W for two.
const (
	StaticPowerW       = 5.3
	DynamicPowerFirstW = 2.2
	DynamicPowerExtraW = 1.2
)

// PowerW returns total power with `active` co-processors executing.
func PowerW(active int) float64 {
	if active <= 0 {
		return StaticPowerW
	}
	return StaticPowerW + DynamicPowerFirstW + DynamicPowerExtraW*float64(active-1)
}
