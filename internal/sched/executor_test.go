package sched

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/ckks"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/poly"
	"repro/internal/sampler"
)

// The key-switch digit loop has two executors (hwsim.Coprocessor.KeySwitch):
// with the integrity checker on, the row executor issues the listing one
// instruction at a time; without it, the fused executor charges the same
// listing and computes it in one pass. These tests run every operation that
// switches keys on a scheduler of each kind and require everything
// observable to agree: the result bytes, the Report, the ledger, and the
// recorded trace and its listing.

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
// the result's elements and the report.
func (e *executors) run(name string, op func(k int) ([]poly.RNSPoly, Report, error)) {
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
	if f.C.Stats.PerOp[hwsim.OpDecomp] == nil {
		e.t.Fatalf("%s: no key switch ran", name)
	}
}

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
			e.run("Mul", func(k int) ([]poly.RNSPoly, Report, error) {
				out, rep, err := s[k].Mul(a, b, rk)
				return fvEls(out), rep, err
			})
			e.run("Rotate", func(k int) ([]poly.RNSPoly, Report, error) {
				out, rep, err := s[k].Rotate(a, gk)
				return fvEls(out), rep, err
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
	for level := p.MaxLevel(); level >= 0; level-- {
		pt, err := encoder.Encode(vals, level, p.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct := encr.Encrypt(pt)
		if level >= 1 {
			e.run(fmt.Sprintf("MulRescale level %d", level), func(k int) ([]poly.RNSPoly, Report, error) {
				out, rep, err := s[k].MulRescale(ct, ct, rk)
				return ckksEls(out), rep, err
			})
		}
		e.run(fmt.Sprintf("Rotate level %d", level), func(k int) ([]poly.RNSPoly, Report, error) {
			out, rep, err := s[k].Rotate(ct, 1, gk)
			return ckksEls(out), rep, err
		})
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
