// Encsort: encrypted sorting — another application the paper's Sec. III-A
// names for its depth-4-class parameter regime. A client encrypts a list of
// small integers bit by bit; the server sorts the list with an odd-even
// transposition network whose comparators (less-than + oblivious mux) are
// evaluated entirely on ciphertext, so the server learns neither the values
// nor the permutation. The AND count and multiplicative depth are reported:
// they are the quantities that size FV parameters for boolean workloads.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/fv"
	"repro/internal/program"
	"repro/internal/sampler"
)

func main() {
	// Comparator chains are deep: give the demo a roomy modulus (the
	// methodology the paper's Table V scaling covers; security sizing is
	// beside the point here).
	cfg := fv.Config{N: 512, T: 2, QCount: 10, PCount: 11, PrimeBits: 30,
		Sigma: 3.2, RelinLogW: 30, RelinDepth: 11}
	params, err := fv.NewParams(cfg)
	if err != nil {
		log.Fatal(err)
	}
	prng := sampler.NewPRNG(17)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	enc := fv.NewEncryptor(params, pk, prng)
	dec := fv.NewDecryptor(params, sk)

	const bits = 4
	values := []uint64{11, 2, 14, 7, 5, 9}
	fmt.Printf("client encrypts %v (%d-bit values, bitwise)\n", values, bits)

	// The sorting network as one program: a bits-wide input word per value,
	// the sorted words as outputs.
	circ, err := program.NewBool(program.NewBuilder(), params)
	if err != nil {
		log.Fatal(err)
	}
	words := make([]program.Word, len(values))
	var inputs []*fv.Ciphertext
	for i, v := range values {
		words[i] = circ.InputWord(bits)
		for b := 0; b < bits; b++ {
			pt := fv.NewPlaintext(params)
			pt.Coeffs[0] = (v >> b) & 1
			inputs = append(inputs, enc.Encrypt(pt))
		}
	}
	sorted, err := circ.SortNetwork(words)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range sorted {
		circ.OutputWord(w)
	}
	prog, err := circ.B.Build()
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	outs, err := program.Run(params, prog, inputs, program.Keys{Relin: rk})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	out := make([]uint64, len(values))
	for i, ct := range outs {
		out[i/bits] |= (dec.Decrypt(ct).Coeffs[0] & 1) << (i % bits)
	}
	fmt.Printf("server returns (still encrypted), client decrypts: %v\n", out)
	cost := prog.Analyze().Counts
	fmt.Printf("cost: %d ANDs + %d XORs + %d plain ops, output depth %d (budget left: %d bits), %v\n",
		cost.Muls, cost.Adds, cost.PlainOps, sorted[0].MaxDepth(),
		fv.NoiseBudget(params, sk, outs[0]), elapsed.Round(time.Millisecond))

	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			log.Fatal("output not sorted")
		}
	}
	fmt.Println("sorted correctly without the server seeing a single value ✓")
}
