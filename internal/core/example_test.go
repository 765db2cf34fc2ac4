package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// ExampleAccelerator runs one homomorphic multiplication on the simulated
// co-processor and confirms the result is bit-exact against the software
// evaluator.
func ExampleAccelerator() {
	params, _ := fv.NewParams(fv.TestConfig(65537))
	prng := sampler.NewPRNG(1)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	_ = sk

	enc := fv.NewEncryptor(params, pk, prng)
	encode := fv.NewIntegerEncoder(params)
	ctA := enc.Encrypt(encode.Encode(6))
	ctB := enc.Encrypt(encode.Encode(7))

	accel, _ := core.New(params, hwsim.VariantHPS, 1)
	hwResult, _, _ := accel.Mul(ctA, ctB, rk)
	swResult := fv.NewEvaluator(params).Mul(ctA, ctB, rk)

	fmt.Println(hwResult.Equal(swResult))
	// Output: true
}
