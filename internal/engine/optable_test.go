package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
)

// Every kind the engine declares has a row in the op table, renders the
// name it always had, and is refused by validate — with the message it
// always had — whenever one of its operands is missing.
func TestOpTable(t *testing.T) {
	ct, cct := &fv.Ciphertext{}, &ckks.Ciphertext{}
	plain := []float64{1}
	rows := []struct {
		kind    OpKind
		name    string
		full    Op     // every operand present
		missing []Op   // each with one operand taken away
		refusal string // validate's message for all of those
	}{
		{OpAdd, "add", Op{A: ct, B: ct}, []Op{{B: ct}, {A: ct}, {CA: cct, CB: cct}},
			"engine: add needs two operands"},
		{OpMul, "mul", Op{A: ct, B: ct}, []Op{{B: ct}, {A: ct}, {CA: cct, CB: cct}},
			"engine: mul needs two operands"},
		{OpRotate, "rotate", Op{A: ct}, []Op{{}, {B: ct}, {CA: cct}},
			"engine: rotate needs an operand"},
		{OpCKKSAdd, "ckks_add", Op{CA: cct, CB: cct}, []Op{{CB: cct}, {CA: cct}, {A: ct, B: ct}},
			"engine: ckks_add needs two CKKS operands"},
		{OpCKKSMul, "ckks_mul", Op{CA: cct, CB: cct}, []Op{{CB: cct}, {CA: cct}, {A: ct, B: ct}},
			"engine: ckks_mul needs two CKKS operands"},
		{OpCKKSRotate, "ckks_rotate", Op{CA: cct}, []Op{{}, {CB: cct}, {A: ct}},
			"engine: ckks_rotate needs a CKKS operand"},
		{OpCKKSAddPlain, "ckks_add_plain", Op{CA: cct, Plain: plain}, []Op{{CA: cct}, {Plain: plain}, {A: ct, Plain: plain}},
			"engine: ckks_add_plain needs a CKKS operand and a plaintext vector"},
		{OpCKKSMulPlain, "ckks_mul_plain", Op{CA: cct, Plain: plain}, []Op{{CA: cct}, {Plain: plain}, {A: ct, Plain: plain}},
			"engine: ckks_mul_plain needs a CKKS operand and a plaintext vector"},
	}
	seen := map[OpKind]bool{}
	for _, row := range rows {
		seen[row.kind] = true
		if row.kind.info() == nil {
			t.Errorf("%d (%s): no op table row", row.kind, row.name)
			continue
		}
		if got := row.kind.String(); got != row.name {
			t.Errorf("kind %d renders %q, want %q", row.kind, got, row.name)
		}
		row.full.Kind = row.kind
		if err := validate(row.full); err != nil {
			t.Errorf("%s with every operand refused: %v", row.name, err)
		}
		for i, op := range row.missing {
			op.Kind = row.kind
			if err := validate(op); err == nil || err.Error() != row.refusal {
				t.Errorf("%s missing[%d]: got %v, want %q", row.name, i, err, row.refusal)
			}
		}
	}
	// The table and this test cover the same kinds: a kind added to one
	// without the other fails here.
	for k := range opTable {
		if kind := OpKind(k); kind.info() != nil && !seen[kind] {
			t.Errorf("op table row %d (%v) has no test row", k, kind)
		}
	}
	if len(seen) != 8 {
		t.Errorf("test covers %d kinds, the engine declares 8", len(seen))
	}
	for _, kind := range []OpKind{0, OpCKKSMulPlain + 1, 255} {
		if kind.info() != nil {
			t.Errorf("kind %d has a table row", kind)
		}
		if got, want := kind.String(), "op("; !strings.HasPrefix(got, want) {
			t.Errorf("unknown kind %d renders %q", kind, got)
		}
		if err := validate(Op{Kind: kind, A: ct, B: ct}); err == nil || !strings.HasPrefix(err.Error(), "engine: unknown op kind") {
			t.Errorf("unknown kind %d: validate says %v", kind, err)
		}
	}
}

// Rotations by r and r − Slots() are the same automorphism, so the same
// physical key: the second one must find it resident (one cache slot, one
// key stream), and both must match the software evaluator bit for bit. Keyed
// by the request's rotation count, as before, the second rotation was a
// miss that streamed the key again.
func TestCKKSRotationsShareOneKeyByGaloisElement(t *testing.T) {
	env := newCKKSEngineEnv(t, 1)
	vals := make([]float64, env.p.Slots())
	for i := range vals {
		vals[i] = float64(i%13)/10.0 - 0.6
	}
	ct := env.encrypt(t, vals)
	gk := env.eng.ExportTenantKeys("").CKKSGalois[0]
	ev := ckks.NewEvaluator(env.p)

	same := func(name string, got, want *ckks.Ciphertext) {
		t.Helper()
		if got.Scale != want.Scale || len(got.Els) != len(want.Els) {
			t.Fatalf("%s: shape differs from the software evaluator", name)
		}
		for e := range want.Els {
			for j, row := range want.Els[e].Rows {
				for i, v := range row.Coeffs {
					if got.Els[e].Rows[j].Coeffs[i] != v {
						t.Fatalf("%s: element %d row %d coeff %d differs from the software evaluator", name, e, j, i)
					}
				}
			}
		}
	}

	first := env.submit(t, Op{Kind: OpCKKSRotate, CA: ct, R: 1})
	if first.KeyHit {
		t.Fatal("first rotation found the key resident on a cold worker")
	}
	same("rotate by 1", first.CCt, ev.Rotate(ct, 1, gk))

	r := 1 - env.p.Slots()
	second := env.submit(t, Op{Kind: OpCKKSRotate, CA: ct, R: r})
	if !second.KeyHit {
		t.Errorf("rotation by %d missed the cache: same Galois element as rotation by 1", r)
	}
	if second.Report.KeyLoadCycles != 0 {
		t.Errorf("rotation by %d charged %d key-stream cycles for a resident key", r, second.Report.KeyLoadCycles)
	}
	same("rotate by 1-slots", second.CCt, ev.Rotate(ct, r, gk))

	st := env.eng.Stats()
	if st.KeyLoads != 1 || st.KeyHits != 1 {
		t.Errorf("key loads / hits = %d / %d, want 1 / 1", st.KeyLoads, st.KeyHits)
	}
	if got := st.PerWorker[0].ResidentKeys; got != 1 {
		t.Errorf("worker holds %d resident keys, want 1", got)
	}
}

// Op.G arrives unchecked off the wire, and the relinearization key is
// stored with Galois element 0: a rotate naming element 0 must miss — the
// key's kind is part of its identity — never fetch the relin key and hand
// it to the co-processor as a Galois key. The same holds under CKKS, and the
// engine keeps serving afterwards.
func TestRotateByElementZeroDoesNotResolveToRelinKey(t *testing.T) {
	params := testParams(t)
	tn := newTenant(t, params, "", 31)
	e := newEngine(t, params, Config{Workers: 1})
	e.SetRelinKey(tn.name, tn.rk)
	a, b := tn.encrypt(params, 9, 1), tn.encrypt(params, 13, 2)

	for _, g := range []int{0, -1, 2} {
		if _, err := e.Submit(context.Background(), Op{Kind: OpRotate, A: a, G: g}); !errors.Is(err, ErrNoKey) {
			t.Fatalf("rotate by element %d with only a relin key registered returned %v, want ErrNoKey", g, err)
		}
	}
	res, err := e.Submit(context.Background(), Op{Kind: OpMul, A: a, B: b})
	if err != nil {
		t.Fatalf("mul after the refused rotates: %v", err)
	}
	if got := tn.decrypt(params, res.Ct); got != 9*13 {
		t.Fatalf("9*13 = %d after the refused rotates", got)
	}

	if id := galoisID("", schemeBFV, 0); id == relinID("", schemeBFV) {
		t.Fatalf("Galois element 0 and the relinearization key share the identity %v", id)
	}
	ks := e.ExportTenantKeys("")
	if ks.Count() != 1 || ks.Relin != tn.rk {
		t.Fatalf("exported %d keys, want the relin key alone", ks.Count())
	}
}
