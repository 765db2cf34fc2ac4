package sched

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
)

// paperOps returns every operation of both schemes at the paper sets, on
// the co-processor into one recycled destination per scheme — a BFV Add,
// Mult + relinearization and rotation, and a CKKS Add, Mult + Rescale and
// rotation at the top level of the chain — by name.
func paperOps(b *testing.B) map[string]func() (Report, error) {
	p, s := setupConfig(b, fv.PaperConfig(2))
	prng := sampler.NewPRNG(44)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, 3)
	ct := fv.NewEncryptor(p, pk, prng).Encrypt(fv.NewPlaintext(p))
	out := new(fv.Ciphertext)

	cp, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	ckg := ckks.NewKeyGenerator(cp, prng)
	csk, cpk, crk := ckg.GenKeys()
	cgk := ckg.GenGaloisKey(csk, cp.GaloisElementForRotation(1))
	pt, err := ckks.NewEncoder(cp).Encode(make([]float64, cp.Slots()), cp.MaxLevel(), cp.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	cct := ckks.NewEncryptor(cp, cpk, prng).Encrypt(pt)
	cs := NewCKKS(cp, hwsim.DefaultTiming())
	cout := new(ckks.Ciphertext)
	return map[string]func() (Report, error){
		"bfv_add":          func() (Report, error) { return s.AddInto(out, ct, ct) },
		"bfv_mul":          func() (Report, error) { return s.MulInto(out, ct, ct, rk) },
		"bfv_rotate":       func() (Report, error) { return s.RotateInto(out, ct, gk) },
		"ckks_add":         func() (Report, error) { return cs.AddInto(cout, cct, cct) },
		"ckks_mul_rescale": func() (Report, error) { return cs.MulRescaleInto(cout, cct, cct, crk) },
		"ckks_rotate":      func() (Report, error) { return cs.RotateInto(cout, cct, 1, cgk) },
	}
}

func benchOps(b *testing.B, names ...string) {
	ops := paperOps(b)
	for _, name := range names {
		op := ops[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpInto times every operation of both schemes on the co-processor
// into a recycled destination: operands read where they lie and results
// computed in place, at 0 allocs/op.
func BenchmarkOpInto(b *testing.B) {
	benchOps(b, "bfv_add", "bfv_mul", "bfv_rotate", "ckks_add", "ckks_mul_rescale", "ckks_rotate")
}

// BenchmarkKeySwitch times the two paper-set operations whose host cost the
// key-switch digit loop carries: a BFV Mult + relinearization, and a CKKS
// rotation at the top level of the chain.
func BenchmarkKeySwitch(b *testing.B) { benchOps(b, "bfv_mul", "ckks_rotate") }
