// Package core is a facade over internal/sched for the frozen bench/ alone.
// The whole package is bench-only API (DESIGN §4l): its one file is its
// bench_api.go.
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

// ckksAccelerator is one CKKS chain scheduler under the Mul name bench/
// calls.
type ckksAccelerator struct{ *sched.CKKSScheduler }

// Mul is sched.CKKSScheduler.MulRescale.
func (a ckksAccelerator) Mul(x, y *ckks.Ciphertext, rk *ckks.RelinKey) (*ckks.Ciphertext, Report, error) {
	return a.MulRescale(x, y, rk)
}

// New returns a scheduler over a fresh co-processor (sched.NewDefault).
// variant must be hwsim.VariantHPS (else hwsim.ErrVariant) and coprocs 1
// (see oneCoproc); bench/ passes both.
func New(params *fv.Params, variant, coprocs int) (*sched.Scheduler, error) {
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
func NewCKKS(params *ckks.Params, coprocs int) (*ckksAccelerator, error) {
	if err := oneCoproc(coprocs); err != nil {
		return nil, err
	}
	return &ckksAccelerator{sched.NewCKKS(params, hwsim.DefaultTiming())}, nil
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
