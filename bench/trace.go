package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark wraps the public function it calls. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 = root).
// Start and End are nanoseconds since the recorder's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: begin returns a nil handle and end does nothing, so
// the untraced run pays one nil check per call.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	on    atomic.Bool // flipped between slices of the traced window
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

// openSpan is a started span; end records it.
type openSpan struct {
	r *recorder
	s span
}

func (r *recorder) begin(name string, parent *openSpan, req uint64) *openSpan {
	if r == nil || !r.on.Load() {
		return nil
	}
	o := &openSpan{r: r, s: span{ID: r.next.Add(1), Req: req, Name: name}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	o.s.Start = int64(time.Since(r.epoch))
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeTo dumps the spans as JSON lines.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one entry point of the peel ladder: a public function that does
// everything the rung below it does, plus one more layer. layer names the
// per-layer metric that receives (this rung − next rung).
type rung struct {
	name  string
	layer string
	call  func(i int) error
}

// ladderShares turns rung medians (outermost first) into per-layer self
// times: share[k] = median[k] − median[k+1], and the innermost rung keeps
// its whole median (the floor). The shares therefore add to median[0] by
// construction. nested is false when any share is negative: that rung does
// not contain the one below it (for instance because the outer one runs in
// parallel what the inner one runs serially), so its share is not a cost.
func ladderShares(medians []float64) (shares []float64, nested bool) {
	shares = make([]float64, len(medians))
	nested = true
	for k := range medians {
		if k == len(medians)-1 {
			shares[k] = medians[k]
		} else {
			shares[k] = medians[k] - medians[k+1]
		}
		if shares[k] < 0 {
			nested = false
		}
	}
	return shares, nested
}

// ladderResult is the outcome of a peel phase.
type ladderResult struct {
	Rungs   []string  `json:"rungs"`
	Layers  []string  `json:"layers"`
	Medians []float64 `json:"median_ms"`
	Shares  []float64 `json:"share_ms"`
	Samples int       `json:"samples"`
	Nested  bool      `json:"nested"`
}

// peel sends up to n requests through every rung — one request at a time,
// nothing else in flight — or as many as budget allows (never fewer than one
// block), and returns the per-rung medians and shares. The rungs take turns
// in blocks of peelBlock requests: within a block a rung runs with its own
// working set warm, as it would when serving, instead of with the caches the
// previous rung left behind (interleaving request by request cost the inner
// rungs up to 1.5 ms of a 12 ms Mult and hid the wire share entirely), and
// many short blocks spread any drift of the box evenly over the rungs.
func peel(rungs []rung, n int, budget time.Duration, rec *recorder) (*ladderResult, error) {
	const peelBlock = 10
	lat := make([][]float64, len(rungs))
	deadline := time.Now().Add(budget)
	done := 0
	for done < n && (done == 0 || time.Now().Before(deadline)) {
		for k := range rungs {
			for i := done; i < done+peelBlock; i++ {
				sp := rec.begin(rungs[k].name, nil, uint64(i))
				t0 := time.Now()
				err := rungs[k].call(i)
				d := time.Since(t0)
				sp.end()
				if err != nil {
					return nil, fmt.Errorf("%s, request %d: %w", rungs[k].name, i, err)
				}
				lat[k] = append(lat[k], float64(d)/1e6)
			}
		}
		done += peelBlock
	}
	res := &ladderResult{Samples: done}
	for k := range rungs {
		res.Rungs = append(res.Rungs, rungs[k].name)
		res.Layers = append(res.Layers, rungs[k].layer)
		res.Medians = append(res.Medians, median(lat[k]))
	}
	res.Shares, res.Nested = ladderShares(res.Medians)
	return res, nil
}
