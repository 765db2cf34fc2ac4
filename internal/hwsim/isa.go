package hwsim

import "fmt"

// Op is a co-processor instruction opcode. The instruction set matches the
// paper's Table II: transforms, coefficient-wise arithmetic, memory
// rearrangement, and the lifting/scaling instructions, plus the host-side
// slot load/store that the DMA performs.
type Op uint8

const (
	OpInvalid Op = iota
	OpNTT        // forward transform, in place:    slot A, batch
	OpINTT       // inverse transform, in place:    slot A, batch
	OpCMul       // coefficient-wise multiply:      Dst = A ⊙ B, batch
	OpCAdd       // coefficient-wise add:           Dst = A + B, batch
	OpCSub       // coefficient-wise subtract:      Dst = A - B, batch
	OpCMac       // multiply-accumulate:            Dst += A ⊙ B, batch
	OpRearr      // memory layout rearrangement:    slot A, batch
	OpLift       // Lift q→Q, in place:             slot A gains its p rows
	OpScale      // Scale Q→q:                      Dst(q rows) = scale(A)
	OpDecomp     // relin digit extract:            Dst = digit B of slot A
	OpRescale    // CKKS modulus switch: Dst = ⌊A/q_top⌉ dropping the top row
	//              of the selected batch — [Q] divides by the top chain
	//              prime (Rescale), [P] by the special prime (ModDown).
	opSentinel
)

var opNames = map[Op]string{
	OpNTT:     "NTT",
	OpINTT:    "Inverse-NTT",
	OpCMul:    "Coeff. wise Multiplication",
	OpCAdd:    "Coeff. wise Addition",
	OpCSub:    "Coeff. wise Subtraction",
	OpCMac:    "Coeff. wise Mult-Accumulate",
	OpRearr:   "Memory Rearrange",
	OpLift:    "Lift q->Q",
	OpScale:   "Scale Q->q",
	OpDecomp:  "WordDecomp",
	OpRescale: "Rescale",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// mnemonics for the assembly listing.
var opMnemonics = map[Op]string{
	OpNTT:     "ntt",
	OpINTT:    "intt",
	OpCMul:    "cmul",
	OpCAdd:    "cadd",
	OpCSub:    "csub",
	OpCMac:    "cmac",
	OpRearr:   "rearr",
	OpLift:    "lift",
	OpScale:   "scale",
	OpDecomp:  "wdec",
	OpRescale: "resc",
}

// Disasm renders the instruction in assembly form, e.g.
// "cmul  s4, s0, s2 [P]".
func (i Instr) Disasm() string {
	mn, ok := opMnemonics[i.Op]
	if !ok {
		return fmt.Sprintf(".word 0x%08x", i.Encode())
	}
	batch := "Q"
	if i.Batch == BatchP {
		batch = "P"
	}
	switch i.Op {
	case OpNTT, OpINTT, OpRearr:
		return fmt.Sprintf("%-5s s%d [%s]", mn, i.A, batch)
	case OpLift:
		return fmt.Sprintf("%-5s s%d", mn, i.A)
	case OpScale:
		return fmt.Sprintf("%-5s s%d, s%d", mn, i.Dst, i.A)
	case OpRescale:
		return fmt.Sprintf("%-5s s%d, s%d [%s]", mn, i.Dst, i.A, batch)
	case OpDecomp:
		return fmt.Sprintf("%-5s s%d, s%d, #%d", mn, i.Dst, i.A, i.B)
	default:
		return fmt.Sprintf("%-5s s%d, s%d, s%d [%s]", mn, i.Dst, i.A, i.B, batch)
	}
}

// ValidateProgram statically checks a program against a co-processor shape:
// opcodes known, slots within the memory file, batch codes legal, and every
// field within its width in the instruction word, so an accepted program
// round-trips through Encode/DecodeInstr. Host software runs this before
// enqueueing, mirroring how the paper's Arm driver guards the instruction
// queue.
func ValidateProgram(p *Program, memSlots int) error {
	for i, st := range p.Steps {
		switch {
		case st.Instr != nil:
			in := *st.Instr
			if in.Op == OpInvalid || in.Op >= opSentinel {
				return fmt.Errorf("hwsim: step %d: invalid opcode %d", i, uint8(in.Op))
			}
			if in.Batch > BatchP {
				return fmt.Errorf("hwsim: step %d: invalid batch %d", i, in.Batch)
			}
			if in.B > maxB {
				return fmt.Errorf("hwsim: step %d: operand B = %d does not fit the instruction word's 7-bit field", i, in.B)
			}
			var used []uint8
			switch in.Op {
			case OpNTT, OpINTT, OpRearr, OpLift:
				used = []uint8{in.A}
			case OpScale, OpDecomp, OpRescale: // Decomp's B is a digit index, not a slot
				used = []uint8{in.Dst, in.A}
			default:
				used = []uint8{in.Dst, in.A, in.B}
			}
			for _, s := range used {
				if int(s) >= memSlots {
					return fmt.Errorf("hwsim: step %d: slot %d outside memory file (%d slots)", i, s, memSlots)
				}
			}
		case st.Transfer != nil:
			if st.Transfer.Bytes < 0 {
				return fmt.Errorf("hwsim: step %d: negative transfer size", i)
			}
		default:
			return fmt.Errorf("hwsim: step %d: empty step", i)
		}
	}
	return nil
}

// Batch selects which half of the resource-shared RPAU assignment an
// instruction runs on: BatchQ covers the q primes (q_0…q_5 for the paper
// set), BatchP the p primes (q_6…q_12). Full-basis work issues one
// instruction per batch (Sec. V-A1: "Arithmetic in the RNS of Q is computed
// in two batches").
type Batch uint8

const (
	BatchQ Batch = 0
	BatchP Batch = 1
)

// Instr is one co-processor instruction.
type Instr struct {
	Op    Op
	Dst   uint8 // destination slot (also the in-place operand for NTT/INTT)
	A, B  uint8 // source slots
	Batch Batch
}

// maxB is the largest B operand — a source slot, or WordDecomp's digit
// index — the instruction word holds.
const maxB = 0x7f

// Encode packs the instruction into the 32-bit word format of the
// instruction-set interface: [31:24 opcode][23:16 dst][15:8 A][7:1 B][0 batch].
func (i Instr) Encode() uint32 {
	return uint32(i.Op)<<24 | uint32(i.Dst)<<16 | uint32(i.A)<<8 |
		uint32(i.B&maxB)<<1 | uint32(i.Batch&1)
}

// DecodeInstr unpacks an instruction word. It returns an error for unknown
// opcodes so that host software cannot enqueue garbage silently.
func DecodeInstr(w uint32) (Instr, error) {
	op := Op(w >> 24)
	if op == OpInvalid || op >= opSentinel {
		return Instr{}, fmt.Errorf("hwsim: invalid opcode %d", uint8(op))
	}
	return Instr{
		Op:    op,
		Dst:   uint8(w >> 16),
		A:     uint8(w >> 8),
		B:     uint8(w>>1) & maxB,
		Batch: Batch(w & 1),
	}, nil
}

// Program is an instruction sequence with interleaved host actions.
type Program struct {
	Steps []Step
}

// Step is either a co-processor instruction or a DMA transfer performed by
// the host between instructions (e.g. streaming relinearization keys).
type Step struct {
	Instr    *Instr
	Transfer *Transfer
}

// AddInstr appends an instruction step.
func (p *Program) AddInstr(i Instr) { p.Steps = append(p.Steps, Step{Instr: &i}) }

// AddTransfer appends a DMA transfer step.
func (p *Program) AddTransfer(t Transfer) { p.Steps = append(p.Steps, Step{Transfer: &t}) }
