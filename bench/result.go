package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const schemaVersion = "repro-bench/v1"

// envInfo is what a number cannot be read without: the box and the build.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OSArch     string `json:"os_arch"`
}

func readEnv() envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     readCommit("."),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// readCommit resolves HEAD by reading .git directly — the benchmark starts
// no processes. Outside a git checkout (the driver's copy is one) the commit
// is "unknown".
func readCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref // detached HEAD
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, refName, ok := strings.Cut(line, " "); ok && refName == name {
				return sha
			}
		}
	}
	return "unknown"
}

// phaseInfo records how long each part of the run measured.
type phaseInfo struct {
	Seconds        float64 `json:"seconds"`                   // the -seconds argument
	SetupRuns      int     `json:"setup_runs,omitempty"`      // set-ups behind setup_s's median
	WarmupRequests int     `json:"warmup_requests"`           // per client, before the first timed one
	WindowS        float64 `json:"window_s"`                  // loaded closed-loop window
	TracedWindowS  float64 `json:"traced_window_s,omitempty"` // the part of it with tracing on
	PeelBudgetS    float64 `json:"peel_budget_s,omitempty"`
	Clients        int     `json:"clients"`
}

type requestCounts struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
}

// runRecord is one run of one workload: what -out appends to a result file
// and -history to the history.
type runRecord struct {
	Schema   string        `json:"schema"`
	Time     string        `json:"time"`
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Trace    bool          `json:"trace"`
	Env      envInfo       `json:"env"`
	Phases   phaseInfo     `json:"phases"`
	Requests requestCounts `json:"requests"`
	StealPct float64       `json:"process.steal_pct"`
	Correct  bool          `json:"correct"`
	Errors   []string      `json:"errors,omitempty"`
	Metrics  metricSet     `json:"metrics"`
	Ladder   *ladderResult `json:"ladder,omitempty"`
	Spans    int           `json:"spans,omitempty"`
}

// resultFile is a set of runs, e.g. results/seed-a.json.
type resultFile struct {
	Schema string      `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, schemaVersion)
	}
	return &rf, nil
}

// appendResult adds rec to the result file at path, creating it if needed.
// The file is rewritten through a temporary name so a crash leaves the old
// set intact.
func appendResult(path string, rec runRecord) error {
	rf, err := loadResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf, err = &resultFile{Schema: schemaVersion}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// appendHistory adds one line for rec to the append-only history at path:
// the run's identity and its end-to-end metrics, nothing per-layer.
func appendHistory(path string, rec runRecord) error {
	line := struct {
		Time     string        `json:"time"`
		Commit   string        `json:"commit"`
		Go       string        `json:"go_version"`
		NProc    int           `json:"nproc"`
		Workload string        `json:"workload"`
		Seed     uint64        `json:"seed"`
		Seconds  float64       `json:"seconds"`
		Requests requestCounts `json:"requests"`
		StealPct float64       `json:"process.steal_pct"`
		Metrics  metricSet     `json:"metrics"`
	}{rec.Time, rec.Env.Commit, rec.Env.GoVersion, rec.Env.NProc, rec.Workload, rec.Seed,
		rec.Phases.Seconds, rec.Requests, rec.StealPct, rec.Metrics.pick(recorded())}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func nowUTC() string { return time.Now().UTC().Format(time.RFC3339) }
