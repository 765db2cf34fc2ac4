package hwsim

import (
	"fmt"
	"strconv"
	"strings"
)

// Assembler for the co-processor's textual instruction format — the inverse
// of Instr.Disasm. The paper's architecture is explicitly *programmable*
// ("instruction-set coprocessor", Sec. V); the assembly form lets new
// homomorphic routines be written, validated, and timed without touching
// the scheduler:
//
//	; comments run to end of line
//	lift  s0
//	rearr s0 [Q]
//	ntt   s0 [Q]
//	cmul  s4, s0, s2 [P]
//	wdec  s14, s10, #3
//	scale s8, s4
//	resc  s10, s8 [P]      ; CKKS Rescale ([Q]) or ModDown ([P])
//	dma   98304            ; a host DMA transfer of N bytes
//
// Slot operands are s<N> (s0–s255; the third slot of a three-slot form
// s0–s127, the width of the word's B field); the optional [Q]/[P] selects
// the RPAU batch (default Q); wdec's third operand is a #digit index
// (0–127).
func Assemble(src string) (*Program, error) {
	prog := &Program{}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		mnemonic := strings.ToLower(fields[0])
		rest := strings.TrimSpace(line[len(fields[0]):])

		if mnemonic == "dma" {
			bytes, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil || bytes < 0 {
				return nil, fmt.Errorf("hwsim: line %d: bad dma size %q", lineNo+1, rest)
			}
			prog.AddTransfer(Transfer{Bytes: bytes, Label: "asm"})
			continue
		}

		var op Op
		found := false
		for candidate, mn := range opMnemonics {
			if mn == mnemonic {
				op, found = candidate, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("hwsim: line %d: unknown mnemonic %q", lineNo+1, mnemonic)
		}

		// Split off the batch suffix.
		batch := BatchQ
		if i := strings.IndexByte(rest, '['); i >= 0 {
			tag := strings.ToUpper(strings.Trim(rest[i:], "[] \t"))
			switch tag {
			case "Q":
				batch = BatchQ
			case "P":
				batch = BatchP
			default:
				return nil, fmt.Errorf("hwsim: line %d: bad batch %q", lineNo+1, tag)
			}
			rest = strings.TrimSpace(rest[:i])
		}

		var operands []string
		for _, tok := range strings.Split(rest, ",") {
			if t := strings.TrimSpace(tok); t != "" {
				operands = append(operands, t)
			}
		}
		slot := func(tok string) (uint8, error) {
			if !strings.HasPrefix(tok, "s") {
				return 0, fmt.Errorf("hwsim: line %d: expected slot, got %q", lineNo+1, tok)
			}
			v, err := strconv.Atoi(tok[1:])
			if err != nil || v < 0 || v > 255 {
				return 0, fmt.Errorf("hwsim: line %d: bad slot %q", lineNo+1, tok)
			}
			return uint8(v), nil
		}

		in := Instr{Op: op, Batch: batch}
		var err error
		switch op {
		case OpNTT, OpINTT, OpRearr, OpLift:
			if len(operands) != 1 {
				return nil, fmt.Errorf("hwsim: line %d: %s takes one slot", lineNo+1, mnemonic)
			}
			in.A, err = slot(operands[0])
		case OpScale, OpRescale:
			if len(operands) != 2 {
				return nil, fmt.Errorf("hwsim: line %d: %s takes dst, src", lineNo+1, mnemonic)
			}
			if in.Dst, err = slot(operands[0]); err == nil {
				in.A, err = slot(operands[1])
			}
		case OpDecomp:
			if len(operands) != 3 || !strings.HasPrefix(operands[2], "#") {
				return nil, fmt.Errorf("hwsim: line %d: wdec takes dst, src, #digit", lineNo+1)
			}
			if in.Dst, err = slot(operands[0]); err == nil {
				if in.A, err = slot(operands[1]); err == nil {
					var d int
					d, err = strconv.Atoi(operands[2][1:])
					if err == nil && (d < 0 || d > maxB) {
						err = fmt.Errorf("hwsim: line %d: digit index out of range", lineNo+1)
					}
					in.B = uint8(d)
				}
			}
		default: // three-slot ALU forms
			if len(operands) != 3 {
				return nil, fmt.Errorf("hwsim: line %d: %s takes dst, a, b", lineNo+1, mnemonic)
			}
			if in.Dst, err = slot(operands[0]); err == nil {
				if in.A, err = slot(operands[1]); err == nil {
					in.B, err = slot(operands[2])
					if err == nil && in.B > maxB {
						// The word's B field is 7 bits: a wider slot would
						// encode as a different one.
						err = fmt.Errorf("hwsim: line %d: %s's third slot s%d does not fit the 7-bit B field", lineNo+1, mnemonic, in.B)
					}
				}
			}
		}
		if err != nil {
			return nil, err
		}
		prog.AddInstr(in)
	}
	return prog, nil
}

// DisasmProgram renders a program back to assembly text.
func DisasmProgram(p *Program) string {
	var b strings.Builder
	for _, st := range p.Steps {
		switch {
		case st.Instr != nil:
			fmt.Fprintln(&b, st.Instr.Disasm())
		case st.Transfer != nil:
			fmt.Fprintf(&b, "dma   %d\n", st.Transfer.Bytes)
		}
	}
	return b.String()
}
