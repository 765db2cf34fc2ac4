package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is the process- and machine-level accounting at one instant.
// Everything the benchmark boots (generator, router, nodes) lives in this
// one process, so its CPU and heap are the whole stack's.
type procSnap struct {
	cpu        time.Duration // user + system
	maxRSSKB   int64
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	gcCPU      float64 // seconds of CPU the collector has used
	steal      uint64  // machine-wide jiffies stolen by the hypervisor
	allJiffies uint64
	wall       time.Time
}

func snapProc() procSnap {
	var s procSnap
	s.wall = time.Now()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKB = int64(ru.Maxrss)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.mallocs, s.numGC = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	s.steal, s.allJiffies = readProcStat()
	return s
}

// readProcStat returns the steal column and the sum of all columns of the
// aggregate "cpu" line of /proc/stat; zeros when the file is unreadable (the
// steal figure is then reported as 0 and says nothing).
func readProcStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, col := range f[1:] {
		v, err := strconv.ParseUint(col, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Columns 9 and 10 (guest, guest_nice) are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of machine time between two snapshots that the
// hypervisor gave to someone else: a disturbed run shows here.
func stealPct(a, b procSnap) float64 {
	if b.allJiffies <= a.allJiffies {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.allJiffies-a.allJiffies)
}
