package sched

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/faults"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/sampler"
)

// The co-processor has two executors: with the integrity checker on, the
// guarded one copies operands into the memory file and issues every
// instruction, the key-switch digit loop included, one at a time; without
// it, the fused one reads the operands where they lie, computes the result
// in the caller's destination, and runs the digit loop in one pass
// (hwsim.Coprocessor.KeySwitch, ViewSlot, BindSlot). These tests run every
// operation of both schemes through its Into form on a scheduler of each
// kind, under every destination a caller may pass, and require everything
// observable to agree — the result bytes, the Report, the ledger, and the
// recorded trace and its listing — and the fused path to leave every
// operand that is not the destination byte for byte as it was.

// executors is a pair of machines over the same parameters, the first
// guarded (row executor), the second not (fused executor).
type executors struct {
	t              *testing.T
	guarded, fused *machine
}

func newExecutors(t *testing.T, guarded, fused *machine) *executors {
	t.Helper()
	if err := guarded.EnableIntegrity(7); err != nil {
		t.Fatal(err)
	}
	guarded.Record, fused.Record = true, true
	return &executors{t: t, guarded: guarded, fused: fused}
}

// run runs op on both machines — k = 0 the guarded one, 1 the fused one —
// from a clean ledger and trace and compares what each observed; op returns
// the result's elements and the report, and must have issued want.
func (e *executors) run(name string, want hwsim.Op, op func(k int) ([]poly.RNSPoly, Report, error)) {
	e.t.Helper()
	var els [2][]poly.RNSPoly
	var reps [2]Report
	for k, m := range []*machine{e.guarded, e.fused} {
		m.C.ResetStats()
		m.Trace = m.Trace[:0]
		var err error
		if els[k], reps[k], err = op(k); err != nil {
			e.t.Fatalf("%s: %v", name, err)
		}
	}
	g, f := e.guarded, e.fused
	if len(els[0]) != len(els[1]) {
		e.t.Fatalf("%s: %d vs %d result elements", name, len(els[0]), len(els[1]))
	}
	for i := range els[0] {
		if !els[0][i].Equal(els[1][i]) {
			e.t.Fatalf("%s: result element %d differs between the executors", name, i)
		}
	}
	if reps[0] != reps[1] {
		e.t.Fatalf("%s: report %+v (row executor) vs %+v (fused)", name, reps[0], reps[1])
	}
	if !reflect.DeepEqual(*g.C.Stats, *f.C.Stats) {
		e.t.Fatalf("%s: ledgers differ:\nrow executor %s\nfused        %s", name, ledger(g.C.Stats), ledger(f.C.Stats))
	}
	if !reflect.DeepEqual(g.Trace, f.Trace) {
		e.t.Fatalf("%s: recorded traces differ (%d vs %d tasks)", name, len(g.Trace), len(f.Trace))
	}
	if g.ProgramListing() != f.ProgramListing() {
		e.t.Fatalf("%s: program listings differ", name)
	}
	if f.C.Stats.PerOp[want] == nil {
		e.t.Fatalf("%s: issued no %v", name, want)
	}
}

// into runs one operation's Into form through run under each destination:
// a new ciphertext; the first operand itself (a clone of a, so each
// executor overwrites its own); a fresh destination with a == b (binary
// operations, b non-nil); and recycled[k], which each executor keeps across
// every call, so it arrives last shaped by another operation — at another
// level on CKKS. Before each fused call every operand but the destination
// is snapshotted, and it must come back byte for byte.
func into[T any](e *executors, name string, want hwsim.Op, a, b *T, recycled *[2]*T,
	els func(*T) []poly.RNSPoly, clone func(*T) *T, op func(k int, out, a, b *T) (Report, error)) {
	e.t.Helper()
	type call struct {
		dest string
		args func(k int) (out, a, b *T)
	}
	calls := []call{
		{"new destination", func(int) (*T, *T, *T) { return new(T), a, b }},
		{"destination is a", func(int) (*T, *T, *T) { c := clone(a); return c, c, b }},
		{"recycled destination", func(k int) (*T, *T, *T) { return recycled[k], a, b }},
	}
	if b != nil {
		calls = append(calls, call{"a == b", func(int) (*T, *T, *T) { return new(T), a, a }})
	}
	for _, c := range calls {
		e.run(name+", "+c.dest, want, func(k int) ([]poly.RNSPoly, Report, error) {
			out, x, y := c.args(k)
			var kept []*T
			var snaps [][]poly.RNSPoly
			for _, in := range []*T{x, y} {
				if k == 1 && in != nil && in != out {
					kept, snaps = append(kept, in), append(snaps, cloneEls(els(in)))
				}
			}
			rep, err := op(k, out, x, y)
			for i, in := range kept {
				for j, el := range els(in) {
					if !el.Equal(snaps[i][j]) {
						e.t.Fatalf("%s, %s: the fused path wrote operand element %d", name, c.dest, j)
					}
				}
			}
			return els(out), rep, err
		})
	}
}

func cloneEls(els []poly.RNSPoly) []poly.RNSPoly {
	out := make([]poly.RNSPoly, len(els))
	for i, el := range els {
		out[i] = el.Clone()
	}
	return out
}

func cloneFV(ct *fv.Ciphertext) *fv.Ciphertext { return &fv.Ciphertext{Els: cloneEls(ct.Els)} }

func ledger(s *hwsim.Stats) string {
	out := fmt.Sprintf("total %d, %d transfers %v s;", s.Total, s.TransferCalls, s.TransferSeconds)
	for _, op := range s.Ops() {
		out += fmt.Sprintf(" %v ×%d = %d;", op, s.PerOp[op].Calls, s.PerOp[op].TotalCycles)
	}
	return out
}

func TestExecutorsAgreeBFV(t *testing.T) {
	cfgs := map[string]fv.Config{"test": fv.TestConfig(257), "paper": fv.PaperConfig(2)}
	for _, name := range []string{"test", "paper"} {
		t.Run(name, func(t *testing.T) {
			if name == "paper" && testing.Short() {
				t.Skip("paper parameters are slow")
			}
			p, g := setupConfig(t, cfgs[name])
			_, f := setupConfig(t, cfgs[name])
			e := newExecutors(t, &g.machine, &f.machine)
			prng := sampler.NewPRNG(44)
			kg := fv.NewKeyGenerator(p, prng)
			sk, pk, rk := kg.GenKeys()
			gk := kg.GenGaloisKey(sk, 3)
			enc := fv.NewEncryptor(p, pk, prng)
			a, b := enc.Encrypt(randMessage(p, prng)), enc.Encrypt(randMessage(p, prng))
			s := [2]*Scheduler{g, f}
			var recycled [2]*fv.Ciphertext
			for k := range recycled {
				recycled[k] = new(fv.Ciphertext)
			}
			into(e, "Add", hwsim.OpCAdd, a, b, &recycled, fvEls, cloneFV, func(k int, out, a, b *fv.Ciphertext) (Report, error) {
				return s[k].AddInto(out, a, b)
			})
			into(e, "Mul", hwsim.OpDecomp, a, b, &recycled, fvEls, cloneFV, func(k int, out, a, b *fv.Ciphertext) (Report, error) {
				return s[k].MulInto(out, a, b, rk)
			})
			into(e, "Rotate", hwsim.OpDecomp, a, nil, &recycled, fvEls, cloneFV, func(k int, out, a, _ *fv.Ciphertext) (Report, error) {
				return s[k].RotateInto(out, a, gk)
			})
		})
	}
}

func TestExecutorsAgreeCKKS(t *testing.T) {
	if testing.Short() {
		t.Skip("paper parameters are slow")
	}
	p, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewPRNG(44)
	kg := ckks.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, p.GaloisElementForRotation(1))
	encoder, encr := ckks.NewEncoder(p), ckks.NewEncryptor(p, pk, prng)
	g, f := NewCKKS(p, hwsim.DefaultTiming()), NewCKKS(p, hwsim.DefaultTiming())
	e := newExecutors(t, &g.machine, &f.machine)
	s := [2]*CKKSScheduler{g, f}
	vals := make([]float64, p.Slots())
	for i := range vals {
		vals[i] = math.Sin(float64(i)) / 2
	}
	var recycled [2]*ckks.Ciphertext
	for k := range recycled {
		recycled[k] = new(ckks.Ciphertext)
	}
	clone := (*ckks.Ciphertext).Clone
	for level := p.MaxLevel(); level >= 0; level-- {
		pt, err := encoder.Encode(vals, level, p.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		a, b := encr.Encrypt(pt), encr.Encrypt(pt)
		into(e, fmt.Sprintf("Add level %d", level), hwsim.OpCAdd, a, b, &recycled, ckksEls, clone,
			func(k int, out, a, b *ckks.Ciphertext) (Report, error) { return s[k].AddInto(out, a, b) })
		if level >= 1 {
			into(e, fmt.Sprintf("MulRescale level %d", level), hwsim.OpDecomp, a, b, &recycled, ckksEls, clone,
				func(k int, out, a, b *ckks.Ciphertext) (Report, error) { return s[k].MulRescaleInto(out, a, b, rk) })
		}
		into(e, fmt.Sprintf("Rotate level %d", level), hwsim.OpDecomp, a, nil, &recycled, ckksEls, clone,
			func(k int, out, a, _ *ckks.Ciphertext) (Report, error) { return s[k].RotateInto(out, a, 1, gk) })
	}
}

// A loop whose accumulator holds data is refused by both executors before
// it issues anything: a typed error, and nothing on the ledger or the trace.
func TestKeySwitchRefusesLiveAccumulator(t *testing.T) {
	p, g := setup(t)
	_, f := setup(t)
	newExecutors(t, &g.machine, &f.machine)
	prng := sampler.NewPRNG(45)
	_, _, rk := fv.NewKeyGenerator(p, prng).GenKeys()
	src := randResidues(p, prng)
	row := poly.NewRNSPoly(p.QMods, p.N())
	for _, s := range []*Scheduler{g, f} {
		s.reset()
		s.C.ResetStats()
		s.Trace = s.Trace[:0]
		s.C.LoadSlotCoeff(slotA0, 0, src.Rows)
		s.C.LoadSlotNTT(slotAcc1, 0, row.Rows)
		err := s.C.KeySwitch(s.relinLoop(slotA0, rk), &s.Trace)
		if !errors.Is(err, hwsim.ErrAccumulatorLive) {
			t.Fatalf("KeySwitch into a live accumulator: %v, want ErrAccumulatorLive", err)
		}
		if st := s.C.Stats; st.Total != 0 || st.TransferCalls != 0 || len(st.PerOp) != 0 || len(s.Trace) != 0 {
			t.Fatalf("a refused loop charged %s and recorded %d tasks", ledger(st), len(s.Trace))
		}
	}
}

// TestGuardedPathKeepsItsOwnMemory: with an injector attached the memory
// file copies the operands in, because the injectors must hit memory the
// co-processor owns. Under pinned BRAM and DMA schedules every operation of
// both schemes leaves its operands byte for byte as they were, fails only
// with an integrity error, and every fault fired is detected.
func TestGuardedPathKeepsItsOwnMemory(t *testing.T) {
	p, s := setup(t)
	prng := sampler.NewPRNG(46)
	kg := fv.NewKeyGenerator(p, prng)
	sk, pk, rk := kg.GenKeys()
	gk := kg.GenGaloisKey(sk, 3)
	enc := fv.NewEncryptor(p, pk, prng)
	a, b := enc.Encrypt(randMessage(p, prng)), enc.Encrypt(randMessage(p, prng))
	cc := newCKKSTestContext(t)
	ca, cb := cc.encryptRange(t, 3), cc.encryptRange(t, 5)
	ops := []struct {
		name     string
		operands [][]poly.RNSPoly
		run      func() (Report, error)
	}{
		{"Add", [][]poly.RNSPoly{a.Els, b.Els}, func() (Report, error) { return s.AddInto(new(fv.Ciphertext), a, b) }},
		{"Mul", [][]poly.RNSPoly{a.Els, b.Els}, func() (Report, error) { return s.MulInto(new(fv.Ciphertext), a, b, rk) }},
		{"Rotate", [][]poly.RNSPoly{a.Els}, func() (Report, error) { return s.RotateInto(new(fv.Ciphertext), a, gk) }},
		{"CKKS Add", [][]poly.RNSPoly{ca.Els, cb.Els}, func() (Report, error) { return cc.hw.AddInto(new(ckks.Ciphertext), ca, cb) }},
		{"CKKS MulRescale", [][]poly.RNSPoly{ca.Els, cb.Els}, func() (Report, error) {
			return cc.hw.MulRescaleInto(new(ckks.Ciphertext), ca, cb, cc.rk)
		}},
		{"CKKS Rotate", [][]poly.RNSPoly{ca.Els}, func() (Report, error) { return cc.hw.RotateInto(new(ckks.Ciphertext), ca, 1, cc.gk) }},
	}
	var fired uint64
	for i := range 12 {
		inj := faults.New(int64(6000 + i))
		inj.Arm(faults.Spec{Class: faults.ClassBRAM, After: uint64(7 * i)}, faults.Spec{Class: faults.ClassDMA, After: uint64(i)})
		reg := obs.NewRegistry()
		for _, m := range []*machine{&s.machine, &cc.hw.machine} {
			if err := m.EnableIntegrity(int64(i)); err != nil {
				t.Fatal(err)
			}
			m.SetInjector(inj)
			m.SetMetrics(reg)
		}
		for _, op := range ops {
			var snaps [][]poly.RNSPoly
			for _, els := range op.operands {
				snaps = append(snaps, cloneEls(els))
			}
			if _, err := op.run(); err != nil && !errors.Is(err, hwsim.ErrIntegrity) {
				t.Fatalf("schedule %d %s: %v", i, op.name, err)
			}
			for k, els := range op.operands {
				for j, el := range els {
					if !el.Equal(snaps[k][j]) {
						t.Fatalf("schedule %d %s: operand %d element %d changed on the guarded path", i, op.name, k, j)
					}
				}
			}
		}
		// Faults left in the memory file are counted as it is flushed.
		s.reset()
		cc.hw.reset()
		var detected uint64
		for name, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "hw_integrity_") && strings.HasSuffix(name, "_detected") {
				detected += v
			}
		}
		f := inj.Stats().TotalFired
		if detected < f {
			t.Fatalf("schedule %d: %d faults fired, %d detected", i, f, detected)
		}
		fired += f
	}
	if fired < 12 {
		t.Fatalf("only %d faults fired across the schedules", fired)
	}
	t.Logf("%d faults fired across 12 schedules, every one detected", fired)
}

// randMessage returns a uniform plaintext.
func randMessage(p *fv.Params, prng *sampler.PRNG) *fv.Plaintext {
	pt := fv.NewPlaintext(p)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = prng.Uint64n(p.T())
	}
	return pt
}

// randResidues returns a coefficient-domain polynomial over the q basis with
// uniform residues — a ciphertext-shaped operand.
func randResidues(p *fv.Params, prng *sampler.PRNG) poly.RNSPoly {
	x := poly.NewRNSPoly(p.QMods, p.N())
	for _, r := range x.Rows {
		for i := range r.Coeffs {
			r.Coeffs[i] = prng.Uint64n(r.Mod.Q)
		}
	}
	return x
}

func fvEls(ct *fv.Ciphertext) []poly.RNSPoly {
	if ct == nil {
		return nil
	}
	return ct.Els
}

func ckksEls(ct *ckks.Ciphertext) []poly.RNSPoly {
	if ct == nil {
		return nil
	}
	return ct.Els
}
