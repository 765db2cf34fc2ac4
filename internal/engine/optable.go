package engine

import (
	"fmt"

	"repro/internal/fv"
)

// scheme is which of the two co-processor-backed schemes a kind, and an
// evaluation key, belongs to.
type scheme uint8

const (
	schemeBFV scheme = iota
	schemeCKKS
)

// keyNeed is which evaluation key an operation kind consumes; with the
// tenant and the scheme it fixes the key's identity (keyID).
type keyNeed uint8

const (
	keyNone  keyNeed = iota
	keyRelin         // the tenant's relinearization key
	// keyGalois is the key of one Galois element: Op.G under BFV, the
	// element of the rotation count Op.R under CKKS — resolved once, at
	// admission, so batching and the resident-key cache see the key's
	// identity, never the request parameter that led to it.
	keyGalois
)

// opInfo is one row of the op table: everything the engine needs to know
// about a kind outside the worker's exec.
type opInfo struct {
	name   string
	scheme scheme
	// Operands: ciphertexts (A, B under BFV; CA, CB under CKKS), whether a
	// plaintext slot vector rides along, and validate's wording for both.
	cts   int
	plain bool
	needs string
	key   keyNeed
	// noise is the guardrail's prediction of the budget left after the
	// operation; nil for kinds the fv noise model does not cover.
	noise func(m *fv.NoiseModel, budget float64) float64
}

var opTable = [...]opInfo{
	OpAdd: {name: "add", scheme: schemeBFV, cts: 2, needs: "two operands",
		noise: func(m *fv.NoiseModel, b float64) float64 { return m.AfterAdd(b, b) }},
	OpMul: {name: "mul", scheme: schemeBFV, cts: 2, needs: "two operands", key: keyRelin,
		noise: func(m *fv.NoiseModel, b float64) float64 { return m.AfterMul(b, b) }},
	OpRotate: {name: "rotate", scheme: schemeBFV, cts: 1, needs: "an operand", key: keyGalois,
		noise: (*fv.NoiseModel).AfterGalois},
	OpCKKSAdd:    {name: "ckks_add", scheme: schemeCKKS, cts: 2, needs: "two CKKS operands"},
	OpCKKSMul:    {name: "ckks_mul", scheme: schemeCKKS, cts: 2, needs: "two CKKS operands", key: keyRelin},
	OpCKKSRotate: {name: "ckks_rotate", scheme: schemeCKKS, cts: 1, needs: "a CKKS operand", key: keyGalois},
	OpCKKSAddPlain: {name: "ckks_add_plain", scheme: schemeCKKS, cts: 1, plain: true,
		needs: "a CKKS operand and a plaintext vector"},
	OpCKKSMulPlain: {name: "ckks_mul_plain", scheme: schemeCKKS, cts: 1, plain: true,
		needs: "a CKKS operand and a plaintext vector"},
}

// info returns the kind's table row, nil for a kind the engine does not
// serve.
func (k OpKind) info() *opInfo {
	if int(k) >= len(opTable) || opTable[k].name == "" {
		return nil
	}
	return &opTable[k]
}

func (k OpKind) String() string {
	if info := k.info(); info != nil {
		return info.name
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// validate refuses an operation of an unknown kind or with an operand
// missing.
func validate(op Op) error {
	info := op.Kind.info()
	if info == nil {
		return fmt.Errorf("engine: unknown op kind %d", op.Kind)
	}
	a, b := op.A != nil, op.B != nil
	if info.scheme == schemeCKKS {
		a, b = op.CA != nil, op.CB != nil
	}
	if !a || info.cts == 2 && !b || info.plain && len(op.Plain) == 0 {
		return fmt.Errorf("engine: %v needs %s", op.Kind, info.needs)
	}
	return nil
}
