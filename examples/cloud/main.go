// Cloud: the end-to-end deployment of the paper's Fig. 11 — a TCP server
// owning the simulated Arm+FPGA platform, and a client that uploads
// encrypted operands and gets encrypted results back, with the simulated
// co-processor latency reported per operation. The server process can also
// be run standalone as cmd/heserver; this example hosts it in-process so it
// runs with a single `go run`.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

func main() {
	params, err := fv.NewParams(fv.TestConfig(65537))
	if err != nil {
		log.Fatal(err)
	}
	prng := sampler.NewPRNG(42)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()

	// --- Cloud side: a serving engine with two workers, each driving one
	// simulated co-processor (the paper's dual-co-processor platform).
	eng, err := engine.New(engine.Config{
		Params:  params,
		Workers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng.SetRelinKey(cloud.DefaultTenant, rk)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		eng.Shutdown(ctx)
	}()
	srv := cloud.NewServer(params, eng, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	fmt.Printf("cloud server up on %s (n=%d, 2 simulated co-processors)\n", addr, params.N())

	// --- Client side: encrypt locally, compute remotely, decrypt locally.
	client, err := cloud.Dial(addr, params)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	enc := fv.NewEncryptor(params, pk, prng)
	dec := fv.NewDecryptor(params, sk)
	encode := fv.NewIntegerEncoder(params)

	ctSalary := enc.Encrypt(encode.Encode(5200))
	ctBonus := enc.Encrypt(encode.Encode(800))
	ctMonths := enc.Encrypt(encode.Encode(12))

	// total = (salary + bonus) · months, computed entirely in the cloud.
	ctBase, addTime, err := client.Add(ctSalary, ctBonus)
	if err != nil {
		log.Fatal(err)
	}
	ctTotal, mulTime, err := client.Mul(ctBase, ctMonths)
	if err != nil {
		log.Fatal(err)
	}

	total, err := encode.Decode(dec.Decrypt(ctTotal))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloud computed (5200 + 800) · 12 = %d on encrypted data\n", total)
	fmt.Printf("simulated co-processor latency: Add %v, Mult %v\n", addTime, mulTime)
	st := eng.Stats()
	fmt.Printf("operations served: %d (batches %d, key loads %d, key hits %d)\n",
		srv.Served(), st.Batches, st.KeyLoads, st.KeyHits)
	if total != 72000 {
		log.Fatal("wrong result")
	}
}
