package fv

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sampler"
)

// mulStageGolden is the expected pre-order span sequence of one traced Mul:
// the Fig. 2 pipeline (lift, NTT, tensor, inverse NTT, scale) followed by
// relinearization's decompose / sum-of-products / inverse NTT / combine.
var mulStageGolden = []string{
	"trace",
	"mul",
	"lift",
	"ntt",
	"tensor",
	"intt",
	"scale",
	"relin",
	"decomp",
	"sop",
	"intt",
	"combine",
}

func TestTracedMulStageSequence(t *testing.T) {
	params, err := NewParams(TestConfig(65537))
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, sampler.NewPRNG(42))
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk := kg.GenRelinKey(sk)
	enc := NewEncryptor(params, pk, sampler.NewPRNG(7))
	pt := NewPlaintext(params)
	pt.Coeffs[0] = 3
	ctA := enc.Encrypt(pt)
	pt.Coeffs[0] = 5
	ctB := enc.Encrypt(pt)

	ev := NewEvaluator(params)
	tr := obs.New("trace")
	reg := obs.NewRegistry()
	ev.SetTracer(tr)
	ev.SetMetrics(reg)

	out := ev.Mul(ctA, ctB, rk)

	if got := tr.Root().Names(); !reflect.DeepEqual(got, mulStageGolden) {
		t.Fatalf("traced Mul stage sequence:\n got %v\nwant %v", got, mulStageGolden)
	}

	// The acceptance bar: a single traced Mul covers >= 5 distinct stages.
	distinct := map[string]bool{}
	tr.Root().Walk(func(depth int, s *obs.Span) {
		if depth >= 2 { // stages, not the root or the "mul" umbrella
			distinct[s.Name] = true
		}
	})
	if len(distinct) < 5 {
		t.Fatalf("traced Mul covers %d distinct stages, want >= 5: %v", len(distinct), distinct)
	}

	// Every stage span carries a wall-clock duration and monotonic start.
	tr.Root().Walk(func(depth int, s *obs.Span) {
		if depth > 0 && s.Dur <= 0 {
			t.Errorf("span %q has no duration", s.Name)
		}
	})

	if got := reg.Counter("fv.mul").Value(); got != 1 {
		t.Fatalf("fv.mul counter = %d, want 1", got)
	}

	// The traced result must decrypt identically to an untraced one.
	ev2 := NewEvaluator(params)
	want := ev2.Mul(ctA, ctB, rk)
	dec := NewDecryptor(params, sk)
	if got, exp := dec.Decrypt(out).Coeffs[0], dec.Decrypt(want).Coeffs[0]; got != exp {
		t.Fatalf("traced Mul decrypts to %d, untraced to %d", got, exp)
	}

	// Noise gauge: measured budget lands in the registry.
	budget := GaugeNoiseBudget(reg, params, sk, out)
	if budget <= 0 {
		t.Fatalf("depth-1 product has no noise budget left (%d bits)", budget)
	}
	if got := reg.Gauge("fv.noise_budget_bits").Value(); got != int64(budget) {
		t.Fatalf("gauge = %d, want %d", got, budget)
	}
}

// TestUntracedEvaluatorUnaffected pins the disabled-state invariant: with no
// tracer attached, evaluation emits nothing and still computes the same
// bits.
func TestUntracedEvaluatorUnaffected(t *testing.T) {
	params, err := NewParams(TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, sampler.NewPRNG(1))
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk := kg.GenRelinKey(sk)
	enc := NewEncryptor(params, pk, sampler.NewPRNG(2))
	pt := NewPlaintext(params)
	pt.Coeffs[0] = 7
	ct := enc.Encrypt(pt)

	ev := NewEvaluator(params)
	out := ev.Mul(ct, ct, rk)
	dec := NewDecryptor(params, sk)
	if got := dec.Decrypt(out).Coeffs[0]; got != 49%257 {
		t.Fatalf("untraced Mul decrypts to %d, want %d", got, 49%257)
	}
}
