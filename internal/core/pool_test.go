package core

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// A BFV Rotate uploads one ciphertext — sched.Rotate sends two polynomials —
// so its report charges a two-polynomial operand DMA, half of what Add and
// Mul pay for their two operands. The pre-fold wrapper filled every report
// with the four-polynomial figure.
func TestRotateReportsOneCiphertextIn(t *testing.T) {
	a, p := testAccel(t, hwsim.VariantHPS)
	prng := sampler.NewPRNG(21)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, 3)
	ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))

	_, rot, err := a.Rotate(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	_, mul, err := a.Mul(ct, ct, rk)
	if err != nil {
		t.Fatal(err)
	}
	polyBytes := hwsim.PolyBytes(p.N(), p.QBasis.K())
	if want := a.transferCycles(2 * polyBytes); rot.SendCycles != want {
		t.Fatalf("Rotate SendCycles = %d, want %d (one ciphertext = two polynomials)", rot.SendCycles, want)
	}
	if want := a.transferCycles(4 * polyBytes); mul.SendCycles != want {
		t.Fatalf("Mul SendCycles = %d, want %d (two ciphertexts)", mul.SendCycles, want)
	}
	if rot.SendCycles >= mul.SendCycles {
		t.Fatalf("Rotate's operand DMA (%d cycles) is not smaller than Mul's (%d)", rot.SendCycles, mul.SendCycles)
	}
	if rot.ReceiveCycles != mul.ReceiveCycles {
		t.Fatalf("result DMA differs: Rotate %d, Mul %d (one ciphertext out either way)", rot.ReceiveCycles, mul.ReceiveCycles)
	}
}

// Stats means the same thing on both accelerator types: the ledger of the
// last operation. Two Mults in a row report the call counts and cycles of
// one, and the pointer handed out stays the live ledger.
func TestStatsIsPerOperationBothSchemes(t *testing.T) {
	check := func(t *testing.T, stats func() *hwsim.Stats, mul func() error) {
		t.Helper()
		if err := mul(); err != nil {
			t.Fatal(err)
		}
		ledger := stats()
		calls, total, transfers := ledger.PerOp[hwsim.OpNTT].Calls, ledger.Total, ledger.TransferCalls
		if calls == 0 || total == 0 || transfers == 0 {
			t.Fatalf("first Mul left an empty ledger: %d NTT calls, %d cycles, %d transfers", calls, total, transfers)
		}
		if err := mul(); err != nil {
			t.Fatal(err)
		}
		if stats() != ledger {
			t.Fatal("Stats() handed out a different ledger after the second Mul")
		}
		if got := ledger.PerOp[hwsim.OpNTT].Calls; got != calls {
			t.Errorf("NTT calls after two Mults = %d, want %d (the count of one)", got, calls)
		}
		if ledger.Total != total || ledger.TransferCalls != transfers {
			t.Errorf("ledger after two Mults: %d cycles / %d transfers, want %d / %d",
				ledger.Total, ledger.TransferCalls, total, transfers)
		}
	}

	t.Run("bfv", func(t *testing.T) {
		a, p := testAccel(t, hwsim.VariantHPS)
		prng := sampler.NewPRNG(22)
		_, pk, rk := fv.NewKeyGenerator(p, prng).GenKeys()
		ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))
		check(t, a.Stats, func() error { _, _, err := a.Mul(ct, ct, rk); return err })
	})
	t.Run("ckks", func(t *testing.T) {
		p, err := ckks.NewParams(ckks.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		prng := sampler.NewPRNG(23)
		_, pk, rk := ckks.NewKeyGenerator(p, prng).GenKeys()
		pt, err := ckks.NewEncoder(p).Encode(make([]float64, p.Slots()), p.MaxLevel(), p.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := ckks.NewEncryptor(p, pk, prng).Encrypt(pt)
		a, err := NewCKKS(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(t, a.Stats, func() error { _, _, err := a.Mul(ct, ct, rk); return err })
	})
}
