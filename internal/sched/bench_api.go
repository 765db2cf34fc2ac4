// Bench-only API (DESIGN §4l): only the frozen bench/ may use these names.

package sched

// PipelinedMinSlots is MinSlots plus 4 shadow operand slots per extra bank,
// which no schedule uses (overlap is hwsim.DMA.SimulateStream's model).
func PipelinedMinSlots(banks int) int { return numSlots + 4*(max(banks, 1)-1) }

// ResetStats zeroes the statistics ledger in place.
func (s *CKKSScheduler) ResetStats() { s.Stats.Reset() }
