// Package repro reproduces, in Go, the HPCA 2019 paper "FPGA-based
// High-Performance Parallel Architecture for Homomorphic Computing on
// Encrypted Data" by Sinha Roy, Turan, Järvinen, Vercauteren and
// Verbauwhede: a complete software implementation of the RNS Fan–Vercauteren
// homomorphic encryption scheme together with a functional, cycle-level
// simulator of the paper's Arm+FPGA co-processor that regenerates every
// table of the paper's evaluation.
//
// Start with internal/sched (the accelerator API), internal/fv (the scheme),
// and internal/hwsim (the co-processor model). The examples/ directory holds
// runnable walkthroughs; cmd/hetables regenerates the paper's tables; the
// benchmarks in bench_test.go map one-to-one onto the paper's evaluation
// artifacts. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
