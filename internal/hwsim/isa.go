package hwsim

import (
	"fmt"
	"strings"
)

// Op is a co-processor instruction opcode. The instruction set matches the
// paper's Table II: transforms, coefficient-wise arithmetic, memory
// rearrangement, and the lifting/scaling instructions, plus the host-side
// slot load/store that the DMA performs. What each opcode is — its name,
// mnemonic, operand form and unit — is its row of the isa table below.
type Op uint8

const (
	OpInvalid Op = iota
	OpNTT
	OpINTT
	OpCMul
	OpCAdd
	OpCSub
	OpCMac
	OpRearr
	OpLift
	OpScale
	OpDecomp
	OpRescale
	opSentinel
)

// field is one operand of the assembly text: a slot held in the word's Dst,
// A or B field, or an immediate digit index held in B.
type field uint8

const (
	fieldDst field = iota
	fieldA
	fieldB
	fieldDigit
)

// form is an operand form: the operands the assembly text names, in order.
// The first operand is the slot the instruction writes and the other slots
// are read; an in-place or accumulating form reads its first operand too.
type form struct {
	operands []field
	readsDst bool
}

var (
	formInPlace = form{[]field{fieldA}, true}                        // op  sA
	formUnary   = form{[]field{fieldDst, fieldA}, false}             // op  sDst, sA
	formDigit   = form{[]field{fieldDst, fieldA, fieldDigit}, false} // op  sDst, sA, #B
	formBinary  = form{[]field{fieldDst, fieldA, fieldB}, false}     // op  sDst, sA, sB
	formAccum   = form{[]field{fieldDst, fieldA, fieldB}, true}      // op  sDst, sA, sB (Dst += …)
)

// opInfo is one row of the instruction set.
type opInfo struct {
	name     string // the Table II row name
	mnemonic string
	form     form
	tagged   bool // the text carries a [Q]/[P] batch tag
	unit     Unit
}

// isa is the instruction set, one row per opcode: the listing, the
// assembler, the validator and the overlap trace all read an instruction's
// operands from here.
var isa = [opSentinel]opInfo{
	OpNTT:    {"NTT", "ntt", formInPlace, true, UnitRPAU},                        // forward transform
	OpINTT:   {"Inverse-NTT", "intt", formInPlace, true, UnitRPAU},               // inverse transform
	OpCMul:   {"Coeff. wise Multiplication", "cmul", formBinary, true, UnitRPAU}, // Dst = A ⊙ B
	OpCAdd:   {"Coeff. wise Addition", "cadd", formBinary, true, UnitRPAU},       // Dst = A + B
	OpCSub:   {"Coeff. wise Subtraction", "csub", formBinary, true, UnitRPAU},    // Dst = A - B
	OpCMac:   {"Coeff. wise Mult-Accumulate", "cmac", formAccum, true, UnitRPAU}, // Dst += A ⊙ B
	OpRearr:  {"Memory Rearrange", "rearr", formInPlace, true, UnitRPAU},         // memory layout rearrangement
	OpLift:   {"Lift q->Q", "lift", formInPlace, false, UnitLiftScale},           // A gains its p rows
	OpScale:  {"Scale Q->q", "scale", formUnary, false, UnitLiftScale},           // Dst (q rows) = scale(A)
	OpDecomp: {"WordDecomp", "wdec", formDigit, false, UnitRPAU},                 // Dst = digit B of A
	// CKKS modulus switch, Dst = ⌊A/q_top⌉ dropping the top row of the
	// selected batch: [Q] divides by the top chain prime (Rescale), [P] by
	// the special prime (ModDown).
	OpRescale: {"Rescale", "resc", formUnary, true, UnitRPAU},
}

// info returns the opcode's row; ok is false outside the instruction set.
func (o Op) info() (row opInfo, ok bool) {
	if o == OpInvalid || o >= opSentinel {
		return opInfo{}, false
	}
	return isa[o], true
}

func (o Op) String() string {
	if row, ok := o.info(); ok {
		return row.name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// field returns the instruction field an operand is held in.
func (i *Instr) field(f field) *uint8 {
	switch f {
	case fieldDst:
		return &i.Dst
	case fieldA:
		return &i.A
	default:
		return &i.B
	}
}

// Slots returns the memory-file slots the instruction reads and writes
// (none for an opcode outside the instruction set).
func (i Instr) Slots() (reads, writes []uint8) {
	row, _ := i.Op.info()
	for k, f := range row.form.operands {
		if f == fieldDigit {
			continue
		}
		s := *i.field(f)
		if k == 0 {
			writes = append(writes, s)
			if !row.form.readsDst {
				continue
			}
		}
		reads = append(reads, s)
	}
	return reads, writes
}

// Task returns the instruction as a task of the overlap trace: its listing
// line, its unit, its latency and the slots it reads and writes.
func (i Instr) Task(cycles Cycles) Task {
	row, _ := i.Op.info()
	reads, writes := i.Slots()
	return Task{Label: i.Disasm(), Unit: row.unit, Cycles: cycles, Reads: reads, Writes: writes}
}

// Disasm renders the instruction in assembly form, e.g.
// "cmul  s4, s0, s2 [P]".
func (i Instr) Disasm() string {
	row, ok := i.Op.info()
	if !ok {
		return fmt.Sprintf(".word 0x%08x", i.Encode())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s", row.mnemonic)
	for k, f := range row.form.operands {
		sep, prefix := ",", "s"
		if k == 0 {
			sep = ""
		}
		if f == fieldDigit {
			prefix = "#"
		}
		fmt.Fprintf(&b, "%s %s%d", sep, prefix, *i.field(f))
	}
	if row.tagged {
		batch := "Q"
		if i.Batch == BatchP {
			batch = "P"
		}
		fmt.Fprintf(&b, " [%s]", batch)
	}
	return b.String()
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
			if _, ok := in.Op.info(); !ok {
				return fmt.Errorf("hwsim: step %d: invalid opcode %d", i, uint8(in.Op))
			}
			if in.Batch > BatchP {
				return fmt.Errorf("hwsim: step %d: invalid batch %d", i, in.Batch)
			}
			if in.B > maxB {
				return fmt.Errorf("hwsim: step %d: operand B = %d does not fit the instruction word's 7-bit field", i, in.B)
			}
			reads, writes := in.Slots()
			for _, s := range append(writes, reads...) {
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
	Dst   uint8 // destination slot (unused by the in-place forms, which name A)
	A, B  uint8 // source slots; B is WordDecomp's digit index
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
	if _, ok := op.info(); !ok {
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
