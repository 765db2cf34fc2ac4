package core

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
)

// An accelerator is one co-processor: every constructor serves coprocs = 1
// and refuses any other count with an error (several co-processors are
// internal/engine's worker pool).
func TestConstructorsRefuseAllButOneCoprocessor(t *testing.T) {
	p, err := fv.NewParams(fv.TestConfig(257))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ckks.NewParams(ckks.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	constructors := []struct {
		name  string
		build func(coprocs int) (served bool, err error)
	}{
		{"New", func(n int) (bool, error) { a, err := New(p, hwsim.VariantHPS, n); return a != nil, err }},
		{"NewCKKS", func(n int) (bool, error) { a, err := NewCKKS(cp, n); return a != nil, err }},
	}
	for _, c := range constructors {
		for _, coprocs := range []int{0, 2, -1} {
			if served, err := c.build(coprocs); err == nil || served {
				t.Errorf("%s(coprocs = %d): accelerator %v, err %v; want a refusal", c.name, coprocs, served, err)
			}
		}
		if served, err := c.build(1); err != nil || !served {
			t.Errorf("%s(coprocs = 1): accelerator %v, err %v; want one served", c.name, served, err)
		}
	}
}
