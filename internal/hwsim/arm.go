package hwsim

// ArmModel is the cost model of the processing-system side (paper Fig. 11):
// the Arm cores at 1.2 GHz that run the baremetal server software, dispatch
// instructions to the co-processors, and perform operations in software when
// the hardware path is not used. The paper measures everything in Arm
// cycle-counter units; this model reproduces those views.
type ArmModel struct {
	Timing Timing
}

// SWAddSeconds is the duration of a software FV.Add of two ciphertexts on a
// single Arm core: 2 polynomials × n coefficient additions on 180-bit
// multi-precision values (the paper's baremetal software operates on
// positional coefficients, which is why Table I's software Add is 80x slower
// than hardware even though addition is cheap).
func (a ArmModel) SWAddSeconds(n, elements int) float64 {
	adds := n * elements
	return float64(adds*a.Timing.ArmSWAddCyclesPerCoeff) / ArmClockHz
}

// SWAddArmCycles is SWAddSeconds in Arm cycle-counter units (Table I row 3).
func (a ArmModel) SWAddArmCycles(n, elements int) uint64 {
	return SecondsToArmCycles(a.SWAddSeconds(n, elements))
}
