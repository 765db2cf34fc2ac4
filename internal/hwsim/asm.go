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
// s0–s127, the width of the word's B field); wdec's third operand is a
// #digit index (0–127). On the opcodes whose listing shows one, the optional
// [Q]/[P] selects the RPAU batch (default Q); lift, scale and wdec take none.
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

		in, err := assembleInstr(mnemonic, rest)
		if err != nil {
			return nil, fmt.Errorf("hwsim: line %d: %w", lineNo+1, err)
		}
		prog.AddInstr(in)
	}
	return prog, nil
}

// assembleInstr parses one instruction line, mnemonic split off, against
// its opcode's row of the isa table.
func assembleInstr(mnemonic, rest string) (Instr, error) {
	var in Instr
	for op, row := range isa {
		if row.mnemonic == mnemonic {
			in.Op = Op(op)
		}
	}
	row, ok := in.Op.info()
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	if i := strings.IndexByte(rest, '['); i >= 0 {
		if !row.tagged {
			return in, fmt.Errorf("%s takes no batch tag", mnemonic)
		}
		switch tag := strings.ToUpper(strings.Trim(rest[i:], "[] \t")); tag {
		case "Q":
			in.Batch = BatchQ
		case "P":
			in.Batch = BatchP
		default:
			return in, fmt.Errorf("bad batch %q", tag)
		}
		rest = strings.TrimSpace(rest[:i])
	}

	var operands []string
	for _, tok := range strings.Split(rest, ",") {
		if t := strings.TrimSpace(tok); t != "" {
			operands = append(operands, t)
		}
	}
	if len(operands) != len(row.form.operands) {
		return in, fmt.Errorf("%s takes %d operands, got %d", mnemonic, len(row.form.operands), len(operands))
	}
	for k, f := range row.form.operands {
		tok, prefix, limit := operands[k], "s", 255
		switch f {
		case fieldB:
			// The word's B field is 7 bits: a wider slot would encode as
			// a different one.
			limit = maxB
		case fieldDigit:
			prefix, limit = "#", maxB
		}
		v, err := strconv.Atoi(strings.TrimPrefix(tok, prefix))
		if !strings.HasPrefix(tok, prefix) || err != nil || v < 0 || v > limit {
			return in, fmt.Errorf("%s: bad operand %q (want %s0–%s%d)", mnemonic, tok, prefix, prefix, limit)
		}
		*in.field(f) = uint8(v)
	}
	return in, nil
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
