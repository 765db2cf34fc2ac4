package hwsim

import "fmt"

// The NTT memory unit of Sec. V-A3: a residue polynomial of 4096
// coefficients is held as 2048 virtual words of 60 bits (two paired 30-bit
// coefficients per word, following Roy et al. [30]), split into a lower
// block (word addresses 0..1023) and an upper block (1024..2047). Each block
// is two aligned BRAM36Ks sharing address buses, so per clock cycle a block
// serves exactly one read and one write (one port each).

// MemBlock identifies the lower or upper BRAM block.
type MemBlock int

const (
	LowerBlock MemBlock = iota
	UpperBlock
)

func (b MemBlock) String() string {
	if b == LowerBlock {
		return "lower"
	}
	return "upper"
}

// BlockOf returns which block a virtual word address lives in, for a memory
// of `words` total words (words/2 per block).
func BlockOf(addr, words int) MemBlock {
	if addr < words/2 {
		return LowerBlock
	}
	return UpperBlock
}

// PortTracker checks the one-read-one-write-per-block-per-cycle constraint.
// The NTT schedule validator drives it cycle by cycle; any over-subscription
// is a memory access conflict of the kind Sec. V-A3's schedule is designed
// to avoid.
type PortTracker struct {
	words     int
	reads     [2]int
	writes    [2]int
	Conflicts []string
	cycle     int
}

// NewPortTracker tracks a memory of the given virtual word count.
func NewPortTracker(words int) *PortTracker {
	return &PortTracker{words: words}
}

// Read registers a read of addr in the current cycle.
func (p *PortTracker) Read(addr int) {
	b := BlockOf(addr, p.words)
	p.reads[b]++
	if p.reads[b] > 1 {
		p.Conflicts = append(p.Conflicts,
			fmt.Sprintf("cycle %d: %d reads on %s block", p.cycle, p.reads[b], b))
	}
}

// Write registers a write of addr in the current cycle.
func (p *PortTracker) Write(addr int) {
	b := BlockOf(addr, p.words)
	p.writes[b]++
	if p.writes[b] > 1 {
		p.Conflicts = append(p.Conflicts,
			fmt.Sprintf("cycle %d: %d writes on %s block", p.cycle, p.writes[b], b))
	}
}

// NextCycle advances the tracker to the next clock cycle.
func (p *PortTracker) NextCycle() {
	p.reads = [2]int{}
	p.writes = [2]int{}
	p.cycle++
}
