package engine

import (
	"fmt"
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
}

var opTable = [...]opInfo{
	OpAdd:        {name: "add", scheme: schemeBFV, cts: 2, needs: "two operands"},
	OpMul:        {name: "mul", scheme: schemeBFV, cts: 2, needs: "two operands", key: keyRelin},
	OpRotate:     {name: "rotate", scheme: schemeBFV, cts: 1, needs: "an operand", key: keyGalois},
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

// CKKS reports whether the kind's operands are CKKS ciphertexts (CA, CB).
func (k OpKind) CKKS() bool { return k.info() != nil && k.info().scheme == schemeCKKS }

// Operands returns how many ciphertext operands the kind takes, 0 for a kind
// the engine does not serve.
func (k OpKind) Operands() int {
	if info := k.info(); info != nil {
		return info.cts
	}
	return 0
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
