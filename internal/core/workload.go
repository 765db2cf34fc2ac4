package core

import (
	"fmt"

	"repro/internal/fv"
	"repro/internal/sched"
)

// Workload simulation: the paper's throughput claim ("we can compute 400
// Mult operations per second", Sec. VI-A) is a sustained-service statement
// about the Fig. 11 system — a networking core queueing jobs onto two
// co-processor workers. ServeWorkload replays a job stream against the
// accelerator in simulated time: each job really executes (results are
// returned), its simulated hardware latency advances the owning worker's
// clock, and the dispatcher always picks the earliest-free worker.

// Job is one homomorphic operation request with its arrival time in the
// simulated clock.
type Job struct {
	ArrivalSec float64
	A, B       *fv.Ciphertext
}

// WorkloadStats summarizes a simulated service run.
type WorkloadStats struct {
	Jobs           int
	MakespanSec    float64 // completion time of the last job
	ThroughputPerS float64 // jobs / makespan
	MeanLatencySec float64 // mean (completion - arrival)
	MaxQueueDelay  float64 // worst wait before service started
	Utilization    float64 // busy time / (workers × makespan)
}

// ServeWorkload runs the jobs through the accelerator's co-processors in
// simulated time and returns the results plus service statistics. Jobs must
// be sorted by arrival time.
func (a *Accelerator) ServeWorkload(jobs []Job, rk *fv.RelinKey) ([]*fv.Ciphertext, WorkloadStats, error) {
	if len(jobs) == 0 {
		return nil, WorkloadStats{}, fmt.Errorf("core: empty workload")
	}
	workers := len(a.workers)
	freeAt := make([]float64, workers)
	results := make([]*fv.Ciphertext, len(jobs))

	var stats WorkloadStats
	stats.Jobs = len(jobs)
	busy := 0.0
	prevArrival := jobs[0].ArrivalSec
	for i, job := range jobs {
		if job.ArrivalSec < prevArrival {
			return nil, stats, fmt.Errorf("core: job %d arrives out of order", i)
		}
		prevArrival = job.ArrivalSec

		// Earliest-free worker (the networking core's dispatch policy).
		w := 0
		for k := 1; k < workers; k++ {
			if freeAt[k] < freeAt[w] {
				w = k
			}
		}
		start := job.ArrivalSec
		if freeAt[w] > start {
			start = freeAt[w]
		}
		var execSec float64
		err := a.onWorker(w, func(s *sched.Scheduler) error {
			s.C.ResetStats()
			res, cycles, err := s.Mul(job.A, job.B, rk)
			if err != nil {
				return err
			}
			results[i] = res
			execSec = cycles.Seconds()
			return nil
		})
		if err != nil {
			return nil, stats, err
		}
		finish := start + execSec
		freeAt[w] = finish
		busy += execSec

		if wait := start - job.ArrivalSec; wait > stats.MaxQueueDelay {
			stats.MaxQueueDelay = wait
		}
		stats.MeanLatencySec += finish - job.ArrivalSec
		if finish > stats.MakespanSec {
			stats.MakespanSec = finish
		}
	}
	stats.MeanLatencySec /= float64(len(jobs))
	if stats.MakespanSec > 0 {
		stats.ThroughputPerS = float64(len(jobs)) / stats.MakespanSec
		stats.Utilization = busy / (float64(workers) * stats.MakespanSec)
	}
	return results, stats, nil
}
