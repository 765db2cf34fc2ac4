package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of -compare, per (workload, metric).
const (
	verdictOK         = "ok"         // b's median is within the bound of a's
	verdictWorse      = "worse"      // b's median is worse than a's by more than the bound
	verdictUnresolved = "unresolved" // the runs spread wider than the bound: no call either way
	verdictDiffers    = "differs"    // a figure that must repeat exactly did not
	verdictMissing    = "missing"    // one side has no untraced run of the workload
)

// untraced collects, per workload, seed and metric, the values of a file's
// untraced runs.
func untraced(rf *resultFile) map[string]map[uint64]map[string][]float64 {
	out := map[string]map[uint64]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[uint64]map[string][]float64{}
		}
		if out[r.Workload][r.Seed] == nil {
			out[r.Workload][r.Seed] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][r.Seed][name] = append(out[r.Workload][r.Seed][name], v.Value)
		}
	}
	return out
}

// pooled is one metric's values over all seeds, the way the driver pools its
// ten seeds: host-clock metrics do not depend on the seed beyond their noise.
func pooled(bySeed map[uint64]map[string][]float64, name string) []float64 {
	seeds := make([]uint64, 0, len(bySeed))
	for seed := range bySeed {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var vals []float64
	for _, seed := range seeds {
		vals = append(vals, bySeed[seed][name]...)
	}
	return vals
}

// judgeExact holds a figure that must repeat exactly to that, seed by seed
// (the search program, and so its simulated time, depends on the seed).
func judgeExact(d metricDef, a, b map[uint64]map[string][]float64) string {
	verdict := verdictMissing
	for seed, ma := range a {
		mb, ok := b[seed]
		if !ok {
			continue
		}
		if v := judge(d, ma[d.Name], mb[d.Name]); v != verdictOK {
			return v
		}
		verdict = verdictOK
	}
	return verdict
}

// judge applies one metric's bound to two sets of runs. b is worse when its
// median is past a's by more than the bound in the bad direction. When
// either side's own runs spread (interquartile distance over median) wider
// than the bound, the medians cannot carry a verdict: unresolved — unless
// every run of b beats every run of a, which no spread explains away.
func judge(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing
	}
	ma, mb := median(a), median(b)
	if d.Bound == 0 {
		if ma == mb && spread(a) == 0 && spread(b) == 0 {
			return verdictOK
		}
		return verdictDiffers
	}
	sign := 1.0 // positive change is worse
	if d.Better == higher {
		sign = -1
	}
	if math.Max(spread(a), spread(b)) > d.Bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		bWins := sb[len(sb)-1] < sa[0]
		if d.Better == higher {
			bWins = sb[0] > sa[len(sa)-1]
		}
		if bWins {
			return verdictOK
		}
		return verdictUnresolved
	}
	if sign*(mb-ma) > d.Bound*math.Abs(ma) {
		return verdictWorse
	}
	return verdictOK
}

// compareFiles prints, one row per workload, the verdict of every end-to-end
// metric of result file b against result file a, and reports whether any is
// worse or differs.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	fa, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	a, b := untraced(fa), untraced(fb)
	defs := recorded()
	fmt.Fprintf(w, "compare %s (a) -> %s (b): median of b against median of a, per metric's bound\n", pathA, pathB)
	for _, sp := range workloads() {
		fmt.Fprintf(w, "%-15s", sp.name)
		for _, d := range defs {
			va, vb := pooled(a[sp.name], d.Name), pooled(b[sp.name], d.Name)
			if len(va) == 0 && len(vb) == 0 && d.Name != "fail_frac" {
				continue // sw_eval has no simulated clock
			}
			v := judge(d, va, vb)
			if d.Bound == 0 {
				v = judgeExact(d, a[sp.name], b[sp.name])
			}
			if v == verdictWorse || v == verdictDiffers || v == verdictMissing {
				bad = true
			}
			fmt.Fprintf(w, " %s=%s", d.Name, v)
			if v != verdictMissing {
				fmt.Fprintf(w, "(%.4g->%.4g)", median(va), median(vb))
			}
		}
		fmt.Fprintln(w)
	}
	return bad, nil
}
