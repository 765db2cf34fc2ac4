// Quickstart: generate keys, encrypt two integers, compute on the
// ciphertexts — in software and on the simulated FPGA co-processor — and
// decrypt. This walks the full surface of the library in ~80 lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/fv"
	"repro/internal/sampler"
	"repro/internal/sched"
)

func main() {
	// 1. Parameters. TestConfig is a small, fast set; fv.PaperConfig(t)
	//    gives the paper's n = 4096, 180-bit-q set.
	params, err := fv.NewParams(fv.TestConfig(65537))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parameters: n=%d, log q=%d, t=%d, multiplicative depth ≈ %d\n",
		params.N(), params.LogQ(), params.T(), params.SupportedDepth())

	// 2. Keys. Use sampler.NewRandomPRNG() for real randomness; a fixed seed
	//    makes runs reproducible.
	prng := sampler.NewPRNG(1)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()

	// 3. Encrypt two integers.
	enc := fv.NewEncryptor(params, pk, prng)
	dec := fv.NewDecryptor(params, sk)
	encode := fv.NewIntegerEncoder(params)
	ctA := enc.Encrypt(encode.Encode(1234))
	ctB := enc.Encrypt(encode.Encode(-56))

	// 4. Compute in software.
	ev := fv.NewEvaluator(params)
	sum := ev.Add(ctA, ctB)
	prod := ev.Mul(ctA, ctB, rk)

	mustDecode := func(ct *fv.Ciphertext) int64 {
		v, err := encode.Decode(dec.Decrypt(ct))
		if err != nil {
			log.Fatal(err)
		}
		return v
	}
	fmt.Printf("software:   1234 + (-56) = %d\n", mustDecode(sum))
	fmt.Printf("software:   1234 · (-56) = %d\n", mustDecode(prod))
	fmt.Printf("noise budget after multiply: %d bits\n", fv.NoiseBudget(params, sk, prod))

	// 5. The same computation on one simulated co-processor (HPS
	//    architecture — the paper's design; internal/engine runs two).
	hw, err := sched.NewDefault(params)
	if err != nil {
		log.Fatal(err)
	}
	hwProd, report, err := hw.Mul(ctA, ctB, rk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardware:   1234 · (-56) = %d (bit-exact: %v)\n",
		mustDecode(hwProd), hwProd.Equal(prod))
	fmt.Printf("simulated co-processor time: %.3f ms (%d FPGA cycles at 200 MHz)\n",
		report.ComputeSeconds()*1e3, report.ComputeCycles)
}
