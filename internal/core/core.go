// Package core is a facade over internal/sched kept for bench/ alone: the
// names bench/ compiles against, and nothing else. The engine, the paper
// tables, the harnesses and the examples drive sched directly, and an import
// guard (TestOnlyBenchImportsCore) keeps it that way. The package leaves with
// ROADMAP item 1(a), which moves bench/ onto sched.
package core

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sched"
)

// Report is the scheduler's per-operation report.
type Report = sched.Report

// Accelerator is one BFV scheduler with its co-processor.
type Accelerator = sched.Scheduler

// CKKSAccelerator is one CKKS chain scheduler under the Mul name bench/
// calls.
type CKKSAccelerator struct{ *sched.CKKSScheduler }

// Mul is sched.CKKSScheduler.MulRescale.
func (a CKKSAccelerator) Mul(x, y *ckks.Ciphertext, rk *ckks.RelinKey) (*ckks.Ciphertext, Report, error) {
	return a.MulRescale(x, y, rk)
}

// New returns a scheduler over a fresh co-processor (sched.NewDefault).
// variant must be hwsim.VariantHPS (else hwsim.ErrVariant) and coprocs 1
// (see oneCoproc); bench/ passes both.
func New(params *fv.Params, variant hwsim.Variant, coprocs int) (*Accelerator, error) {
	if err := oneCoproc(coprocs); err != nil {
		return nil, err
	}
	if variant != hwsim.VariantHPS {
		return nil, fmt.Errorf("core: %w", hwsim.ErrVariant)
	}
	return sched.NewDefault(params)
}

// NewCKKS returns a CKKS scheduler under the default calibration. coprocs
// must be 1 (see oneCoproc).
func NewCKKS(params *ckks.Params, coprocs int) (*CKKSAccelerator, error) {
	if err := oneCoproc(coprocs); err != nil {
		return nil, err
	}
	return &CKKSAccelerator{sched.NewCKKS(params, hwsim.DefaultTiming())}, nil
}

// oneCoproc refuses every co-processor count but one. The constructors keep
// the parameter only because bench/ passes it (always 1); several
// co-processors are internal/engine's workers.
func oneCoproc(coprocs int) error {
	if coprocs != 1 {
		return fmt.Errorf("core: an accelerator is one co-processor, got coprocs = %d (internal/engine runs several, one per worker)", coprocs)
	}
	return nil
}
