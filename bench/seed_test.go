package main

import (
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/fv"
	"repro/internal/sampler"
)

// testPool builds an operand pool at the small test parameter set from seed
// and returns its fingerprint.
func testPool(t *testing.T, seed uint64) uint64 {
	t.Helper()
	params := fv.MustParams(fv.TestConfig(paperT))
	sk, pk, rk := fv.NewKeyGenerator(params, sampler.NewPRNG(seed)).GenKeys()
	pool, err := buildFVPool(params, sk, pk, rk, genBFVInputs(seed, paperT, addTenants), true, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range pool {
		for _, ct := range []*fv.Ciphertext{p.a, p.b, p.want} {
			if err := ct.WriteTo(h, params); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genBFVInputs(7, paperT, addTenants), genBFVInputs(7, paperT, addTenants)
	if !reflect.DeepEqual(a, b) {
		t.Error("BFV plaintexts, request order or tenant order differ under one seed")
	}
	if !reflect.DeepEqual(genSearchInputs(7), genSearchInputs(7)) {
		t.Error("search table or query order differ under one seed")
	}
	if !reflect.DeepEqual(genCKKSInputs(7, 64), genCKKSInputs(7, 64)) {
		t.Error("CKKS slots or orders differ under one seed")
	}
	if h1, h2 := testPool(t, 7), testPool(t, 7); h1 != h2 {
		t.Errorf("operand pool hash %x != %x under one seed", h1, h2)
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := genBFVInputs(7, paperT, addTenants), genBFVInputs(8, paperT, addTenants)
	if reflect.DeepEqual(a.tenantOrder, b.tenantOrder) {
		t.Error("tenant order does not depend on the seed")
	}
	if reflect.DeepEqual(a.order, b.order) || reflect.DeepEqual(a.a, b.a) {
		t.Error("operands or their order do not depend on the seed")
	}
	if reflect.DeepEqual(genSearchInputs(7).table, genSearchInputs(8).table) {
		t.Error("search table does not depend on the seed")
	}
	if reflect.DeepEqual(genCKKSInputs(7, 64).slots, genCKKSInputs(8, 64).slots) {
		t.Error("CKKS slots do not depend on the seed")
	}
	if h1, h2 := testPool(t, 7), testPool(t, 8); h1 == h2 {
		t.Errorf("operand pool hash %x is the same under two seeds", h1)
	}
}

func TestSeededInputsAreWellFormed(t *testing.T) {
	in := genBFVInputs(3, paperT, addTenants)
	seen := map[int]int{}
	for _, tn := range in.tenantOrder[:addTenants] {
		seen[tn]++
	}
	if len(seen) != addTenants {
		t.Errorf("one turn of the tenant order visits %d tenants, want all %d", len(seen), addTenants)
	}
	tbl := genSearchInputs(3).table
	keys := map[uint64]bool{}
	for _, e := range tbl {
		if e.Key >= 1<<searchKeyBits || e.Value == 0 || keys[e.Key] {
			t.Errorf("table entry %+v: want a distinct %d-bit key and a non-zero value", e, searchKeyBits)
		}
		keys[e.Key] = true
	}
	if len(tbl) != searchEntries {
		t.Errorf("table has %d rows, want %d", len(tbl), searchEntries)
	}
}
