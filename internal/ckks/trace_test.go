package ckks

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// mulStageGolden is the pre-order span sequence of one traced Mul, the CKKS
// counterpart of fv's mulStageGolden: the tensor over the live chain (no
// lift, no scale), then relinearization's decompose / sum of products /
// inverse NTT, the hybrid key switch's ModDown by p*, and the combine.
var mulStageGolden = []string{
	"trace",
	"ckks_mul",
	"ntt",
	"tensor",
	"intt",
	"relin",
	"decomp",
	"sop",
	"intt",
	"moddown",
	"combine",
}

// rotateStageGolden: a rotation is the automorphism and then the same key
// switch with a Galois key.
var rotateStageGolden = []string{
	"trace",
	"ckks_rotate",
	"automorph",
	"decomp",
	"sop",
	"intt",
	"moddown",
	"combine",
}

func TestTracedMulStageSequence(t *testing.T) {
	tc := newTestContext(t, 7)
	p := tc.params
	vals := make([]float64, p.Slots())
	for i := range vals {
		vals[i] = 0.5
	}
	pt, err := tc.enc.Encode(vals, p.MaxLevel(), p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)
	gk := tc.kg.GenGaloisKey(tc.sk, p.GaloisElementForRotation(1))
	want := NewEvaluator(p).Mul(ct, ct, tc.rk)

	tr := obs.New("trace")
	reg := obs.NewRegistry()
	tc.ev.SetTracer(tr)
	tc.ev.SetMetrics(reg)
	out := tc.ev.Mul(ct, ct, tc.rk)
	if got := tr.Root().Names(); !reflect.DeepEqual(got, mulStageGolden) {
		t.Fatalf("traced Mul stage sequence:\n got %v\nwant %v", got, mulStageGolden)
	}
	if !out.Equal(want) {
		t.Fatal("traced Mul differs from the untraced one")
	}
	// MulInto is the tensor and the relinearization it is made of, and counts
	// as all three, as the BFV evaluator does.
	for _, name := range []string{"ckks.mul", "ckks.mul_no_relin", "ckks.relin"} {
		if got := reg.Counter(name).Value(); got != 1 {
			t.Fatalf("%s counter = %d, want 1", name, got)
		}
	}
	// The two halves on their own emit the same stages under their own roots.
	tr = obs.New("trace")
	tc.ev.SetTracer(tr)
	if got := tc.ev.Relinearize(tc.ev.MulNoRelin(ct, ct), tc.rk); !got.Equal(want) {
		t.Fatal("MulNoRelin + Relinearize differs from Mul")
	}
	split := append(append([]string{"trace", "ckks_mul_no_relin"}, mulStageGolden[2:5]...), "ckks_relin")
	split = append(split, mulStageGolden[6:]...)
	if got := tr.Root().Names(); !reflect.DeepEqual(got, split) {
		t.Fatalf("traced MulNoRelin + Relinearize:\n got %v\nwant %v", got, split)
	}

	tr = obs.New("trace")
	tc.ev.SetTracer(tr)
	tc.ev.Rotate(ct, 1, gk)
	if got := tr.Root().Names(); !reflect.DeepEqual(got, rotateStageGolden) {
		t.Fatalf("traced Rotate stage sequence:\n got %v\nwant %v", got, rotateStageGolden)
	}
}
