// Command hetables regenerates every table of the paper's evaluation
// section from the simulator and prints paper-vs-measured rows.
//
// Usage:
//
//	hetables            # all tables, paper parameter set (n = 4096)
//	hetables -table 1   # a single table: 1,2,3,4,5,nohps,compare,ablations
//	hetables -small     # quick run with the small test parameter set
//	hetables -table3x   # Table III extended to the double-buffered stream
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fv"
	"repro/internal/hebench"
	"repro/internal/hwsim"
)

func main() {
	table := flag.String("table", "", "table to print: 1,2,3,4,5,nohps,compare,ablations (default all)")
	small := flag.Bool("small", false, "use the small test parameter set instead of the paper set")
	program := flag.Bool("program", false, "print the Mult instruction listing instead of tables")
	fig3 := flag.Bool("fig3", false, "print the Fig. 3 memory access pattern instead of tables")
	table3x := flag.Bool("table3x", false, "print the extended Table III (double-buffered stream) instead of tables")
	flag.Parse()

	if *fig3 {
		if err := hwsim.RenderFig3(os.Stdout, 4096); err != nil {
			fmt.Fprintln(os.Stderr, "hetables:", err)
			os.Exit(1)
		}
		return
	}

	var suite *hebench.Suite
	var err error
	if *small {
		suite, err = hebench.NewSuite(fv.TestConfig(2))
	} else {
		suite, err = hebench.PaperSuite()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetables:", err)
		os.Exit(1)
	}

	if *table3x {
		// One Mult stream step as the suite's co-processor measures it: two
		// operand ciphertexts in, the Mult's own compute cycles, one result
		// ciphertext out.
		_, rep, err := suite.HW.Mul(suite.CtA, suite.CtB, suite.RK)
		if err == nil {
			polyB := hwsim.PolyBytes(suite.Params.N(), suite.Params.QBasis.K())
			err = hwsim.RenderTableIIIPipelined(os.Stdout, suite.HW.C.DMAEng,
				4*polyB, 2*polyB, rep.ComputeCycles, 8, []int{0, 16384, 1024})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetables:", err)
			os.Exit(1)
		}
		return
	}

	if *program {
		listing, err := suite.MulProgramListing()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetables:", err)
			os.Exit(1)
		}
		fmt.Print(listing)
		return
	}

	if *table == "" {
		if err := suite.RenderAll(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hetables:", err)
			os.Exit(1)
		}
		return
	}

	var t hebench.Table
	switch *table {
	case "1":
		t, err = suite.TableI()
	case "2":
		t, err = suite.TableII()
	case "3":
		t = suite.TableIII()
	case "4":
		t = suite.TableIV()
	case "5":
		t = suite.TableV()
	case "nohps":
		t, err = suite.TableNoHPS()
	case "compare":
		t, err = suite.Comparison()
	case "ablations":
		t, err = suite.Ablations()
	default:
		fmt.Fprintf(os.Stderr, "hetables: unknown table %q\n", *table)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetables:", err)
		os.Exit(1)
	}
	t.Render(os.Stdout)
}
