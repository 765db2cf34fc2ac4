// Package faults is a deterministic, seeded fault injector for the simulated
// accelerator stack — the chaos half of the robustness layer. It models the
// upset classes an FPGA co-processor deployment actually sees: single-event
// bit flips in BRAM-resident residue words, glitched DMA bursts into the
// memory file, a compute unit (RPAU) producing garbage or stalling, a whole
// residue limb corrupted in place, and network frames dropped or garbled
// between cluster nodes.
//
// The injector follows the nil-safety discipline of internal/obs: a nil
// *Injector is a valid, disabled injector; every method is a no-op costing
// one nil check, so production paths carry zero overhead when chaos is off.
//
// Injection is opportunity-based and deterministic. Instrumented code calls
// Opportunity(class) at each point where a fault of that class could
// physically occur (one BRAM/limb opportunity per retired instruction, one
// DMA opportunity per memory-file load, one RPAU opportunity per checked
// compute instruction, one frame opportunity per forwarded chunk). An armed
// Spec fires at exactly its After-th opportunity of its class, and the fired
// Fault carries its own seeded RNG, so a pinned seed replays the identical
// fault schedule run after run — the property the chaos harness pins.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
)

// Class enumerates the fault classes the injector models.
type Class uint8

const (
	// ClassBRAM is a single-event upset: one bit of one BRAM-resident
	// coefficient word flips at rest.
	ClassBRAM Class = iota
	// ClassDMA is a glitched DMA burst: words of a transfer into the memory
	// file arrive corrupted (the stored copy differs from the source).
	ClassDMA
	// ClassRPAU is a misbehaving compute unit: it either produces garbage
	// output (kill) or takes extra cycles to retire (stall).
	ClassRPAU
	// ClassLimb is a corrupted residue limb: a whole residue row of a
	// polynomial buffer is overwritten with in-range garbage.
	ClassLimb
	// ClassFrame is a network fault: a wire-protocol frame between cluster
	// nodes is dropped (connection severed) or garbled in flight.
	ClassFrame

	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassBRAM:
		return "bram"
	case ClassDMA:
		return "dma"
	case ClassRPAU:
		return "rpau"
	case ClassLimb:
		return "limb"
	case ClassFrame:
		return "frame"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Mode selects how a fired fault corrupts its target. ModeDefault resolves
// to the class's canonical mode (flip for BRAM, garble for DMA/limb/frame,
// kill for RPAU).
type Mode uint8

const (
	ModeDefault Mode = iota
	// ModeFlip flips a single bit of a single stored word, or of one
	// forwarded wire chunk (Proxy).
	ModeFlip
	// ModeGarble overwrites the target with pseudo-random data.
	ModeGarble
	// ModeKill makes an RPAU emit garbage output for one instruction.
	ModeKill
	// ModeStall makes an RPAU take Param extra cycles (default
	// DefaultStallCycles) without corrupting data.
	ModeStall
	// ModeDrop severs the connection carrying the frame.
	ModeDrop
)

func (m Mode) String() string {
	switch m {
	case ModeDefault:
		return "default"
	case ModeFlip:
		return "flip"
	case ModeGarble:
		return "garble"
	case ModeKill:
		return "kill"
	case ModeStall:
		return "stall"
	case ModeDrop:
		return "drop"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// DefaultStallCycles is the extra latency of a ModeStall fault when
// Spec.Param is zero.
const DefaultStallCycles = 1 << 10

// Spec arms one fault: class c fires at the After-th opportunity of that
// class (0 = the first), corrupting per Mode. Param parameterizes the mode
// (stall cycles for ModeStall).
type Spec struct {
	Class Class
	After uint64
	Mode  Mode
	Param int
}

// resolveMode maps ModeDefault to the class's canonical corruption.
func (s Spec) resolveMode() Mode {
	if s.Mode != ModeDefault {
		return s.Mode
	}
	switch s.Class {
	case ClassBRAM:
		return ModeFlip
	case ClassRPAU:
		return ModeKill
	default:
		return ModeGarble
	}
}

type armedFault struct {
	spec  Spec
	fired bool
}

// Injector is the seeded fault scheduler. The zero value is not usable;
// construct with New. A nil *Injector is valid and permanently disabled.
// All methods are safe for concurrent use (the engine's workers share one
// injector).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	armed [numClasses][]*armedFault
	seen  [numClasses]uint64
	fired [numClasses]uint64
}

// New returns an injector whose fault payloads (bit positions, garble words,
// drop points) derive deterministically from seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Arm schedules the given faults. Arming is cumulative.
func (inj *Injector) Arm(specs ...Spec) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, s := range specs {
		if s.Class >= numClasses {
			panic(fmt.Sprintf("faults: unknown class %d", s.Class))
		}
		inj.armed[s.Class] = append(inj.armed[s.Class], &armedFault{spec: s})
	}
}

// Enabled reports whether any fault of the class is still pending — a cheap
// pre-check for instrumentation that would otherwise do work to build an
// opportunity. Nil-safe.
func (inj *Injector) Enabled(c Class) bool {
	if inj == nil {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, a := range inj.armed[c] {
		if !a.fired {
			return true
		}
	}
	return false
}

// Opportunity registers one point where a fault of class c could occur and
// returns the Fault due at it, or nil. Each call advances the class's
// opportunity counter exactly once, fired or not, so schedules are stable
// under re-runs. Nil-safe: a nil injector returns nil without counting.
func (inj *Injector) Opportunity(c Class) *Fault {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	ev := inj.seen[c]
	inj.seen[c]++
	for _, a := range inj.armed[c] {
		if !a.fired && a.spec.After == ev {
			a.fired = true
			inj.fired[c]++
			return &Fault{
				Class: c,
				Mode:  a.spec.resolveMode(),
				Param: a.spec.Param,
				rng:   rand.New(rand.NewSource(inj.rng.Int63())),
			}
		}
	}
	return nil
}

// Stats is a snapshot of the injector's accounting: opportunities seen and
// faults actually fired, per class.
type Stats struct {
	Seen  map[string]uint64 `json:"seen,omitempty"`
	Fired map[string]uint64 `json:"fired,omitempty"`
	// Pending counts armed faults that have not fired (their After exceeds
	// the opportunities the workload offered).
	Pending    int    `json:"pending"`
	TotalFired uint64 `json:"total_fired"`
}

// Stats snapshots the injector. A nil injector reports the zero Stats.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	s := Stats{Seen: map[string]uint64{}, Fired: map[string]uint64{}}
	for c := Class(0); c < numClasses; c++ {
		if inj.seen[c] > 0 {
			s.Seen[c.String()] = inj.seen[c]
		}
		if inj.fired[c] > 0 {
			s.Fired[c.String()] = inj.fired[c]
		}
		s.TotalFired += inj.fired[c]
		for _, a := range inj.armed[c] {
			if !a.fired {
				s.Pending++
			}
		}
	}
	return s
}

// Fault is one fired fault. The holder applies it to its own data structures
// (the injector never touches foreign memory); Pick and Word are the
// deterministic randomness the application draws on.
type Fault struct {
	Class Class
	Mode  Mode
	Param int

	rng *rand.Rand
}

// Pick returns a deterministic pseudo-random index in [0, n). n must be > 0.
func (f *Fault) Pick(n int) int { return f.rng.Intn(n) }

// Word returns a deterministic pseudo-random 64-bit payload.
func (f *Fault) Word() uint64 { return f.rng.Uint64() }

// StallCycles returns the stall duration of a ModeStall fault.
func (f *Fault) StallCycles() int {
	if f.Param > 0 {
		return f.Param
	}
	return DefaultStallCycles
}
