package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/hwsim"
)

// workload is one booted stack with its seeded inputs. A "request" is what a
// client waits for: one op, one whole program, or one job of eight CKKS ops.
type workload interface {
	// clients is how many closed-loop clients (connections) drive the stack.
	clients() int
	// request issues request seq of client c, waits for the answer, checks
	// it bit for bit against the expected result and returns the simulated
	// compute time the server reported for it.
	request(ctx context.Context, rec *recorder, c, seq int) (simNanos uint64, err error)
	// engines are the serving engines behind the stack (none for sw_eval).
	engines() []*engine.Engine
	// ladder returns the peel rungs, outermost first, and a function that
	// releases what they hold. It is called once the loaded phase is over
	// and may reuse the workload's client connections.
	ladder() ([]rung, func(), error)
	// layers adds the per-layer metrics this workload can measure from
	// outside: Stats() readings over the loaded phase and timed calls into
	// the public functions of the layers on its path.
	layers(m metricSet, loaded *windowResult, lad *ladderResult) error
	close() error
}

// errWrong marks a response that arrived but is not the expected ciphertext.
var errWrong = errors.New("response differs from the expected ciphertext")

// spec describes a workload before it is booted.
type spec struct {
	name string
	why  string
	// maxClients is the client count the workload is defined with; the run
	// uses min(maxClients, nproc).
	maxClients int
	// warmup is how many requests each client sends before the first timed
	// one. It is a count, not a time, so that slower requests show in
	// setup_s instead of hiding in a fixed pause.
	warmup int
	// paperSimMs is the paper's Table I time for one request, 0 where the
	// paper gives none.
	paperSimMs float64
	setup      func(seed uint64, clients int) (workload, error)
}

// windowResult is what one closed-loop phase measured.
type windowResult struct {
	latMs     []float64 // one per correct response
	simNanos  []float64 // server-reported simulated time, one per correct response
	attempted int
	failed    int
	rate      float64 // correct responses per second, summed over clients
	errs      []string
	before    procSnap
	after     procSnap
	engBefore []engine.Stats
	engAfter  []engine.Stats
}

func (r *windowResult) ok() int { return r.attempted - r.failed }

// simBusyCycles is the simulated co-processor time all workers of all
// engines spent during the phase, key streaming included.
func (r *windowResult) simBusyCycles() uint64 {
	var sum uint64
	for i := range r.engAfter {
		for w, ws := range r.engAfter[i].PerWorker {
			sum += ws.SimCycles - r.engBefore[i].PerWorker[w].SimCycles
		}
	}
	return sum
}

func cyclesToMs(c uint64) float64 { return hwsim.Cycles(c).Seconds() * 1e3 }

func snapEngines(engs []*engine.Engine) []engine.Stats {
	out := make([]engine.Stats, len(engs))
	for i, e := range engs {
		out[i] = e.Stats()
	}
	return out
}

// maxConsecutiveFailures stops a client whose connection is evidently gone,
// so a dead stack ends the run with a failure count instead of a spin.
const maxConsecutiveFailures = 5

// runClosedLoop drives w with its clients for d. Each client sends its next
// request only after the previous answer arrived and was checked (a closed
// loop), starting at request number first. A request in flight when d ends
// is completed and counted, and each client's rate is taken over its own
// elapsed time, so the rate does not depend on where the deadline falls.
func runClosedLoop(w workload, rec *recorder, first int, d time.Duration) *windowResult {
	res := &windowResult{engBefore: snapEngines(w.engines()), before: snapProc()}
	n := w.clients()
	type tally struct {
		lat, sim  []float64
		attempted int
		failed    int
		elapsed   time.Duration
		errs      []string
	}
	tallies := make([]tally, n)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			consecutive := 0
			for seq := first; time.Now().Before(deadline) && consecutive < maxConsecutiveFailures; seq++ {
				t0 := time.Now()
				sim, err := w.request(ctx, rec, c, seq)
				lat := time.Since(t0)
				t.attempted++
				if err != nil {
					t.failed++
					consecutive++
					if len(t.errs) < 3 {
						t.errs = append(t.errs, fmt.Sprintf("client %d request %d: %v", c, seq, err))
					}
					continue
				}
				consecutive = 0
				t.lat = append(t.lat, float64(lat)/1e6)
				t.sim = append(t.sim, float64(sim))
			}
			t.elapsed = time.Since(start)
		}(c)
	}
	wg.Wait()
	res.after = snapProc()
	res.engAfter = snapEngines(w.engines())
	for i := range tallies {
		t := &tallies[i]
		res.latMs = append(res.latMs, t.lat...)
		res.simNanos = append(res.simNanos, t.sim...)
		res.attempted += t.attempted
		res.failed += t.failed
		res.errs = append(res.errs, t.errs...)
		if t.elapsed > 0 {
			res.rate += float64(len(t.lat)) / t.elapsed.Seconds()
		}
	}
	return res
}

// warm sends the spec's warm-up requests through every client and fails on
// the first wrong or refused answer: a stack that cannot answer its warm-up
// has no business being measured.
func warm(w workload, warmup int) error {
	errs := make([]error, w.clients())
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; seq < warmup; seq++ {
				if _, err := w.request(context.Background(), nil, c, seq); err != nil {
					errs[c] = fmt.Errorf("warm-up: client %d request %d: %w", c, seq, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// clientCount applies the one-box rule: never more client connections than
// processors, because the generator, the router and the nodes share them and
// an oversubscribed box does not repeat (see README, "Why closed loop").
// asked = 0 takes the workload's own count.
func clientCount(asked, workloadMax, nproc int) (int, error) {
	if asked < 0 {
		return 0, fmt.Errorf("-clients must not be negative, got %d", asked)
	}
	if asked > nproc {
		return 0, fmt.Errorf("-clients %d refused: this box has %d processors, and more client connections than processors do not give repeatable numbers", asked, nproc)
	}
	n := workloadMax
	if asked > 0 && asked < n {
		n = asked
	}
	if n > nproc {
		n = nproc
	}
	return n, nil
}
