package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/program"
)

// goldenProgram compiles the reference circuit the golden file pins: a 2-row
// encrypted-search table with 4-bit keys at the small t=2 parameter set.
// Deterministic end to end — the builder interns plaintexts in first-use
// order and the codec is canonical — so the disassembly is byte-stable.
func goldenProgram(t *testing.T) *program.Program {
	t.Helper()
	params, err := fv.NewParams(fv.TestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.CompileEncSearch(params, []program.TableEntry{
		{Key: 0b1010, Value: 7},
		{Key: 0b0110, Value: 9},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProgDisasmGolden pins heasm -prog output for the reference circuit.
// Regenerate with: HEASM_UPDATE=1 go test ./cmd/heasm -run TestProgDisasmGolden
func TestProgDisasmGolden(t *testing.T) {
	p := goldenProgram(t)
	data, err := p.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "encsearch.hepg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := disasmProgramFile(path)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "encsearch_disasm.golden")
	if update() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("disassembly drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// A corrupted file must fail with the codec's typed error, not junk
	// output: flip one payload byte so the checksum no longer matches.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	badPath := filepath.Join(t.TempDir(), "bad.hepg")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := disasmProgramFile(badPath); err == nil {
		t.Fatal("corrupted program disassembled cleanly")
	}
}

// update reports whether the golden file should be regenerated (an env var,
// not a flag, so it cannot collide with the test binary's flag set).
func update() bool { return os.Getenv("HEASM_UPDATE") != "" }

// TestRunRefusesSlotCountOutsideMemoryFile: -run with a slot count the
// co-processor cannot address is an error, not a panic (-slots -1) or a
// loader whose uint8 slot index wraps onto slot 0 (-slots 1000).
func TestRunRefusesSlotCountOutsideMemoryFile(t *testing.T) {
	for _, slots := range []int{-1, 1000} {
		if err := execute(&hwsim.Program{}, slots); err == nil {
			t.Errorf("execute with -slots %d: no error", slots)
		}
	}
}
