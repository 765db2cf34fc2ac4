package sched

// PipelinedMinSlots returns the memory-file size of the serial working set
// plus 4 shadow operand slots per extra bank. No schedule here uses shadow
// banks — overlap is modelled by hwsim.DMA.SimulateStream over the sequential
// path's per-op costs — and the function exists only because
// bench/wl_bfv.go compiles against it to size its bare co-processor.
func PipelinedMinSlots(banks int) int {
	if banks < 1 {
		banks = 1
	}
	return numSlots + 4*(banks-1)
}
