package engine

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/poly"
	"repro/internal/sched"
)

// ckksWorker is a pool worker's approximate-arithmetic lane: a CKKS chain
// scheduler for the hardware kinds plus the software evaluator and encoder
// for plaintext-operand kinds (the co-processor has no plaintext
// instruction, mirroring how BFV program nodes fall back to software).
type ckksWorker struct {
	hw  *sched.CKKSScheduler
	ev  *ckks.Evaluator
	enc *ckks.Encoder
}

// alignLevels drops the fresher operand's spare chain rows so both sit at
// the more-consumed level — the standard CKKS maintenance step, done
// server-side so clients can combine ciphertexts from different depths
// without tracking the chain themselves. Dropping a level is exact (no
// division), and the co-processor only reads the operand's rows, so the
// fresher operand is handed over as a view of its row prefix, not a copy.
func alignLevels(a, b *ckks.Ciphertext) (*ckks.Ciphertext, *ckks.Ciphertext) {
	if a.Level() > b.Level() {
		a = prefix(a, b.Level())
	} else if b.Level() > a.Level() {
		b = prefix(b, a.Level())
	}
	return a, b
}

// prefix returns ct at level as a view sharing ct's rows.
func prefix(ct *ckks.Ciphertext, level int) *ckks.Ciphertext {
	view := &ckks.Ciphertext{Els: make([]poly.RNSPoly, len(ct.Els)), Scale: ct.Scale}
	for i, el := range ct.Els {
		view.Els[i] = el.Prefix(level + 1)
	}
	return view
}

// addPlain adds the slot vector, encoded at the ciphertext's level and
// scale, on the software evaluator.
func (ck *ckksWorker) addPlain(ct *ckks.Ciphertext, plain []float64) (*ckks.Ciphertext, error) {
	pt, err := ck.enc.Encode(plain, ct.Level(), ct.Scale)
	if err != nil {
		return nil, fmt.Errorf("engine: encoding add_plain operand: %w", err)
	}
	return ck.ev.AddPlain(ct, pt), nil
}

// mulPlain multiplies by the slot vector and rescales, on the software
// evaluator.
func (ck *ckksWorker) mulPlain(ct *ckks.Ciphertext, plain []float64) (*ckks.Ciphertext, error) {
	level := ct.Level()
	if level < 1 {
		return nil, fmt.Errorf("engine: mul_plain at level 0 — no level left to rescale into")
	}
	// Encode the constant at the scale that lands the rescaled product
	// exactly on the default scale, whatever the operand's drift — this
	// is what keeps long plaintext/ciphertext chains addable.
	p := ck.hw.P
	scale := p.ScaleUpTo(ct.Scale, level, p.DefaultScale())
	pt, err := ck.enc.Encode(plain, level, scale)
	if err != nil {
		return nil, fmt.Errorf("engine: encoding mul_plain operand: %w", err)
	}
	return ck.ev.Rescale(ck.ev.MulPlain(ct, pt)), nil
}
