package sched_test

import (
	"fmt"

	"repro/internal/fv"
	"repro/internal/sampler"
	"repro/internal/sched"
)

// ExampleScheduler runs one homomorphic multiplication on the simulated
// co-processor and confirms the result is bit-exact against the software
// evaluator.
func ExampleScheduler() {
	params, _ := fv.NewParams(fv.TestConfig(65537))
	prng := sampler.NewPRNG(1)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	_ = sk

	enc := fv.NewEncryptor(params, pk, prng)
	encode := fv.NewIntegerEncoder(params)
	ctA := enc.Encrypt(encode.Encode(6))
	ctB := enc.Encrypt(encode.Encode(7))

	s, _ := sched.NewDefault(params)
	hwResult, _, _ := s.Mul(ctA, ctB, rk)
	swResult := fv.NewEvaluator(params).Mul(ctA, ctB, rk)

	fmt.Println(hwResult.Equal(swResult))
	// Output: true
}
