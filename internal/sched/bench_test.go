package sched

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// BenchmarkKeySwitch times the two paper-set operations whose host cost the
// key-switch digit loop carries, on the co-processor into a recycled
// destination: a BFV Mult + relinearization, and a CKKS rotation at the top
// level of the chain.
func BenchmarkKeySwitch(b *testing.B) {
	b.Run("bfv_mul", func(b *testing.B) {
		p, s := setupConfig(b, fv.PaperConfig(2))
		prng := sampler.NewPRNG(44)
		kg := fv.NewKeyGenerator(p, prng)
		_, pk, rk := kg.GenKeys()
		ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))
		out := new(fv.Ciphertext)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := s.MulInto(out, ct, ct, rk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ckks_rotate", func(b *testing.B) {
		p, err := ckks.NewParams(ckks.PaperConfig())
		if err != nil {
			b.Fatal(err)
		}
		prng := sampler.NewPRNG(44)
		kg := ckks.NewKeyGenerator(p, prng)
		sk, pk, _ := kg.GenKeys()
		gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))
		pt, err := ckks.NewEncoder(p).Encode(make([]float64, p.Slots()), p.MaxLevel(), p.DefaultScale())
		if err != nil {
			b.Fatal(err)
		}
		ct := ckks.NewEncryptor(p, pk, prng).Encrypt(pt)
		s := NewCKKS(p, hwsim.DefaultTiming())
		out := new(ckks.Ciphertext)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := s.RotateInto(out, ct, 1, gk); err != nil {
				b.Fatal(err)
			}
		}
	})
}
