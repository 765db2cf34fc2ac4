// Command heasm works with the co-processor's assembly format: it
// validates, disassembles, and executes instruction programs on a simulated
// co-processor, reporting per-instruction and total cycle costs. It turns
// the "domain-specific programmable" claim of the paper into a workflow:
// write a homomorphic routine as assembly, time it without a schedule in Go.
//
// Usage:
//
//	heasm -check prog.asm          # assemble + static validation
//	heasm -run prog.asm            # execute on random data, report cycles
//	heasm -mult                    # print the built-in Mult program
//	heasm -prog circuit.hepg       # disassemble a serialized compiled program
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fv"
	"repro/internal/hebench"
	"repro/internal/hwsim"
	"repro/internal/program"
	"repro/internal/sampler"
)

func main() {
	check := flag.String("check", "", "assemble and validate the program file")
	run := flag.String("run", "", "assemble, validate, and execute the program file on random data")
	mult := flag.Bool("mult", false, "print the built-in FV.Mult program (small parameter set)")
	prog := flag.String("prog", "", "disassemble a serialized compiled program (internal/program codec)")
	slots := flag.Int("slots", 16, "memory-file slots")
	flag.Parse()

	switch {
	case *mult:
		suite, err := hebench.NewSuite(fv.TestConfig(2))
		if err != nil {
			fatal(err)
		}
		listing, err := suite.MulProgramListing()
		if err != nil {
			fatal(err)
		}
		fmt.Print(listing)

	case *check != "":
		prog, err := load(*check, *slots)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("heasm: %s OK (%d steps)\n", *check, len(prog.Steps))
		fmt.Print(hwsim.DisasmProgram(prog))

	case *run != "":
		prog, err := load(*run, *slots)
		if err != nil {
			fatal(err)
		}
		if err := execute(prog, *slots); err != nil {
			fatal(err)
		}

	case *prog != "":
		out, err := disasmProgramFile(*prog)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heasm:", err)
	os.Exit(1)
}

// disasmProgramFile decodes a serialized compiled circuit (the "HEPG"
// format programs cross the wire in) under the server's decode limits,
// re-verifies it, and returns the deterministic disassembly — checksum,
// per-node depth/level annotations, cost ledger, and critical path.
func disasmProgramFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	p, err := program.DecodeBytes(data, program.DefaultLimits())
	if err != nil {
		return "", err
	}
	return program.Disasm(p), nil
}

func load(path string, slots int) (*hwsim.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := hwsim.Assemble(string(src))
	if err != nil {
		return nil, err
	}
	if err := hwsim.ValidateProgram(prog, slots); err != nil {
		return nil, err
	}
	return prog, nil
}

func execute(prog *hwsim.Program, slots int) error {
	params, err := fv.NewParams(fv.TestConfig(2))
	if err != nil {
		return err
	}
	c, err := hwsim.New(params.QMods, params.PMods, params.N(),
		params.Lifter, params.Scaler, hwsim.DefaultTiming(), slots)
	if err != nil {
		return err
	}
	// Seed every slot's q rows with random coefficient-domain data so any
	// program has operands to chew on.
	prng := sampler.NewPRNG(1)
	for s := 0; s < slots; s++ {
		c.LoadSlotCoeff(uint8(s), 0, sampler.UniformPoly(prng, params.QMods, params.N()).Rows)
	}
	total := hwsim.Cycles(0)
	for i, st := range prog.Steps {
		var cyc hwsim.Cycles
		var err error
		switch {
		case st.Instr != nil:
			cyc, err = c.Exec(*st.Instr)
			if err != nil {
				return fmt.Errorf("step %d (%s): %w", i, st.Instr.Disasm(), err)
			}
			fmt.Printf("%4d  %-34s ; %7d cycles (%.1f µs)\n", i, st.Instr.Disasm(), cyc, cyc.Micros())
		case st.Transfer != nil:
			cyc = c.Transfer(*st.Transfer)
			fmt.Printf("%4d  dma   %-28d ; %7d cycles (%.1f µs)\n", i, st.Transfer.Bytes, cyc, cyc.Micros())
		}
		total += cyc
	}
	fmt.Printf("      total %d cycles = %.3f ms at 200 MHz (n=%d, %d+%d primes)\n",
		total, total.Seconds()*1e3, params.N(), params.QBasis.K(), params.PBasis.K())
	return nil
}
