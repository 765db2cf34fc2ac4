package core

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/sampler"
)

func TestCKKSAcceleratorEndToEnd(t *testing.T) {
	p, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(9)
	kg := ckks.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))
	enc := ckks.NewEncoder(p)
	encr := ckks.NewEncryptor(p, pk, prng)
	ev := ckks.NewEvaluator(p)

	vals := make([]float64, p.Slots())
	for i := range vals {
		vals[i] = float64(i%11)/10.0 - 0.5
	}
	pt, err := enc.Encode(vals, p.MaxLevel(), p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct := encr.Encrypt(pt)

	acc, err := NewCKKS(p, 1)
	if err != nil {
		t.Fatal(err)
	}

	sum, rep, err := acc.Add(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputeCycles == 0 || rep.SendCycles == 0 || rep.ReceiveCycles == 0 {
		t.Fatalf("add report has zero rows: %+v", rep)
	}
	swSum := ev.Add(ct, ct)
	if sum.Els[0].Rows[0].Coeffs[0] != swSum.Els[0].Rows[0].Coeffs[0] {
		t.Fatal("accelerator Add diverged from software")
	}

	prod, rep, err := acc.Mul(ct, ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Level() != ct.Level()-1 {
		t.Fatalf("Mul result at level %d, want %d", prod.Level(), ct.Level()-1)
	}
	swProd := ev.Rescale(ev.Mul(ct, ct, rk))
	for j := range swProd.Els[0].Rows {
		for i, v := range swProd.Els[0].Rows[j].Coeffs {
			if prod.Els[0].Rows[j].Coeffs[i] != v {
				t.Fatalf("accelerator Mul diverged at row %d coeff %d", j, i)
			}
		}
	}
	if rep.ComputeCycles == 0 {
		t.Fatal("mul report charged no compute cycles")
	}

	rot, _, err := acc.Rotate(ct, 1, gk)
	if err != nil {
		t.Fatal(err)
	}
	swRot := ev.Rotate(ct, 1, gk)
	if rot.Els[1].Rows[0].Coeffs[3] != swRot.Els[1].Rows[0].Coeffs[3] {
		t.Fatal("accelerator Rotate diverged from software")
	}

	if got := CKKSLevelKeyBytes(p, 2); got != 2*3*4*p.N()*4 {
		t.Fatalf("CKKSLevelKeyBytes(2) = %d", got)
	}
	if acc.Stats().Total == 0 {
		t.Fatal("shared stats ledger stayed empty")
	}
}
