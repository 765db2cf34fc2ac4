package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

// stubWorkload answers every request from memory: each third answer is a
// ciphertext with one flipped bit.
type stubWorkload struct {
	good, bad, want *fv.Ciphertext
}

func (s *stubWorkload) clients() int              { return 2 }
func (s *stubWorkload) engines() []*engine.Engine { return nil }
func (s *stubWorkload) close() error              { return nil }
func (s *stubWorkload) ladder() ([]rung, func(), error) {
	return nil, func() {}, nil
}
func (s *stubWorkload) layers(metricSet, *windowResult, *ladderResult) error { return nil }
func (s *stubWorkload) request(_ context.Context, _ *recorder, _, seq int) (uint64, error) {
	time.Sleep(200 * time.Microsecond)
	got := s.good
	if seq%3 == 0 {
		got = s.bad
	}
	return 1000, sameFV(got, s.want)
}

func TestCorruptedResponseCountsAsFailure(t *testing.T) {
	params := fv.MustParams(fv.TestConfig(65537))
	_, pk, _ := fv.NewKeyGenerator(params, sampler.NewPRNG(1)).GenKeys()
	pt := fv.NewPlaintext(params)
	pt.Coeffs[0] = 42
	want := fv.NewEncryptor(params, pk, sampler.NewPRNG(2)).Encrypt(pt)
	bad := want.Clone()
	bad.Els[1].Rows[2].Coeffs[17] ^= 1

	if err := sameFV(want.Clone(), want); err != nil {
		t.Fatalf("an identical ciphertext must pass: %v", err)
	}
	if err := sameFV(bad, want); err == nil {
		t.Fatal("one flipped bit must fail the check")
	}
	if err := sameFV(nil, want); err == nil {
		t.Fatal("a missing result must fail the check")
	}

	res := runClosedLoop(&stubWorkload{good: want.Clone(), bad: bad, want: want}, nil, 0, 50*time.Millisecond)
	if res.attempted < 6 {
		t.Fatalf("only %d requests in the window", res.attempted)
	}
	if res.failed == 0 || res.failed >= res.attempted {
		t.Fatalf("failed %d of %d: every third answer is corrupted", res.failed, res.attempted)
	}
	if res.ok() != len(res.latMs) || res.ok() != res.attempted-res.failed {
		t.Errorf("ok %d, latencies %d, attempted %d, failed %d do not add up", res.ok(), len(res.latMs), res.attempted, res.failed)
	}
	if len(res.errs) == 0 || !strings.Contains(res.errs[0], errWrong.Error()) {
		t.Errorf("the failure must be reported as a wrong response, got %v", res.errs)
	}

	// A run with failures is not correct and says so in fail_frac.
	rec := &runRecord{Metrics: metricSet{}}
	endToEndMetrics(spec{name: "stub"}, rec, res)
	if rec.Correct {
		t.Error("a run with wrong responses must not be reported correct")
	}
	if ff := rec.Metrics["fail_frac"].Value; ff <= 0 || ff >= 1 {
		t.Errorf("fail_frac = %v, want the failed share", ff)
	}
}

func TestClientCountNeverExceedsProcessors(t *testing.T) {
	for _, tc := range []struct {
		asked, max, nproc, want int
		refused                 bool
	}{
		{0, 2, 2, 2, false},
		{0, 2, 1, 1, false}, // a one-processor box gets one client
		{0, 1, 8, 1, false}, // a workload defined with one client keeps one
		{1, 2, 2, 1, false},
		{2, 2, 2, 2, false},
		{3, 2, 2, 0, true}, // more connections than processors
		{4, 2, 8, 2, false},
		{-1, 2, 2, 0, true},
	} {
		got, err := clientCount(tc.asked, tc.max, tc.nproc)
		if (err != nil) != tc.refused || got != tc.want {
			t.Errorf("clientCount(%d, %d, %d) = %d, %v; want %d, refused %v", tc.asked, tc.max, tc.nproc, got, err, tc.want, tc.refused)
		}
	}
}

// The stack boots, answers and shuts down: the shortest real run, on the
// cheapest serving workload.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack three times")
	}
	rec, err := run(addRoutedSpec(), options{seed: 3, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Requests.Failed != 0 || rec.Requests.OK == 0 {
		t.Fatalf("requests %+v, correct %v, errors %v", rec.Requests, rec.Correct, rec.Errors)
	}
	for _, d := range endToEnd {
		if v := rec.Metrics[d.Name]; v.Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", d.Name, v.Value)
		}
	}
	if got := rec.Metrics["sim_ms_per_op"].Value; got != 0.02606 {
		t.Errorf("sim_ms_per_op = %v, want the simulator's 0.02606 for a paper-size Add", got)
	}
}
