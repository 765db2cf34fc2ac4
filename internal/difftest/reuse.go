package difftest

import (
	"errors"
	"fmt"

	"repro/internal/ckks"
	"repro/internal/faults"
	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/sampler"
	"repro/internal/sched"
)

// ReuseHarness is the dirty-file differential. The co-processor's memory
// file is resident: an operation runs in the rows the operation before left
// behind, wiped lazily. The harness drives one long-lived scheduler per
// scheme (BFV, the CKKS chain) through a seeded mix of operations and, op by
// op, rebuilds a brand-new scheduler to run the same operation on: the two
// must agree in every ciphertext bit and every simulated cycle. Reuse that is visible anywhere — a stale row read as data,
// an accumulator starting from the last tenant's sum, a domain tag or a
// fingerprint surviving a wipe — shows as a divergence.
type ReuseHarness struct {
	Params  *fv.Params
	CParams *ckks.Params
	// Integrity runs both sides with the fingerprint checker on.
	Integrity bool
	// Damaged counts operations run under an injected fault, Aborted those
	// of them the checker stopped mid-program with a typed error.
	Damaged, Aborted int

	bfv [2]bfvTenant
	hw  *sched.Scheduler

	cenc *ckks.Encryptor
	ccod *ckks.Encoder
	crk  *ckks.RelinKey
	cgk  *ckks.GaloisKey
	chw  *sched.CKKSScheduler
	ccur *ckks.Ciphertext
}

// bfvTenant is one tenant's evaluation keys and a pool of its ciphertexts.
type bfvTenant struct {
	rk   *fv.RelinKey
	gk   *fv.GaloisKey
	pool []*fv.Ciphertext
}

const integritySeed = 7

// NewReuse builds the harness: two BFV tenants and one CKKS tenant with
// deterministic keys from keySeed, and the two long-lived schedulers.
func NewReuse(cfg fv.Config, ccfg ckks.Config, keySeed uint64, integrity bool) (*ReuseHarness, error) {
	params, err := fv.NewParams(cfg)
	if err != nil {
		return nil, err
	}
	cparams, err := ckks.NewParams(ccfg)
	if err != nil {
		return nil, err
	}
	h := &ReuseHarness{Params: params, CParams: cparams, Integrity: integrity}
	for i := range h.bfv {
		prng := sampler.NewPRNG(keySeed + uint64(i))
		kg := fv.NewKeyGenerator(params, prng)
		sk, pk, rk := kg.GenKeys()
		tn := &h.bfv[i]
		tn.rk = rk
		tn.gk = kg.GenGaloisKey(sk, 3)
		enc := fv.NewEncryptor(params, pk, prng)
		for j := 0; j < 4; j++ {
			pt := fv.NewPlaintext(params)
			for c := range pt.Coeffs {
				pt.Coeffs[c] = prng.Uint64n(params.T())
			}
			tn.pool = append(tn.pool, enc.Encrypt(pt))
		}
	}
	if h.hw, err = h.newBFV(); err != nil {
		return nil, err
	}

	cprng := sampler.NewPRNG(keySeed + 100)
	ckg := ckks.NewKeyGenerator(cparams, cprng)
	csk, cpk, crk := ckg.GenKeys()
	h.crk = crk
	h.cgk = ckg.GenGaloisKey(csk, cparams.GaloisElementForRotation(1))
	h.cenc = ckks.NewEncryptor(cparams, cpk, cprng)
	h.ccod = ckks.NewEncoder(cparams)
	if h.chw, err = h.newCKKS(); err != nil {
		return nil, err
	}
	return h, nil
}

// newBFV builds a scheduler over a brand-new co-processor.
func (h *ReuseHarness) newBFV() (*sched.Scheduler, error) {
	s, err := sched.NewDefault(h.Params)
	if err != nil {
		return nil, err
	}
	if h.Integrity {
		if err := s.EnableIntegrity(integritySeed); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (h *ReuseHarness) newCKKS() (*sched.CKKSScheduler, error) {
	s := sched.NewCKKS(h.CParams, hwsim.DefaultTiming())
	if h.Integrity {
		if err := s.EnableIntegrity(integritySeed); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// freshCKKS returns a top-of-chain ciphertext with slots expanded from next.
func (h *ReuseHarness) freshCKKS(next func() uint64) (*ckks.Ciphertext, error) {
	vals := make([]float64, h.CParams.Slots())
	for i := range vals {
		vals[i] = float64(int64(next()%2000))/1000.0 - 1.0
	}
	pt, err := h.ccod.Encode(vals, h.CParams.MaxLevel(), h.CParams.DefaultScale())
	if err != nil {
		return nil, err
	}
	return h.cenc.Encrypt(pt), nil
}

// opFault arms at most one fault for the long-lived side of an operation: a
// compute-unit kill or a storage upset at a seeded instruction of its
// program. Under the checker the upset aborts the operation mid-program with
// a typed error and the kill is recomputed; without it both run to the end
// on garbage. Either way the memory file is left holding whatever the
// damaged operation wrote — which the next operation must not see.
func opFault(next func() uint64) *faults.Injector {
	if next()%4 != 0 {
		return nil
	}
	inj := faults.New(int64(next() >> 1))
	class := faults.ClassRPAU
	if next()%2 == 0 {
		class = faults.ClassBRAM
	}
	inj.Arm(faults.Spec{Class: class, After: next() % 24})
	return inj
}

func (h *ReuseHarness) damaged(err error) {
	h.Damaged++
	if errors.Is(err, hwsim.ErrIntegrity) {
		h.Aborted++
	}
}

// Run drives ops seeded operations through the long-lived schedulers and
// returns the first divergence from a brand-new scheduler (nil when reuse is
// invisible). An operation that ran under an injected fault is not compared —
// its successor is.
func (h *ReuseHarness) Run(seed []byte, ops int) error {
	next := splitmix64(seed)
	for i := 0; i < ops; i++ {
		kind := next() % 7
		inj := opFault(next)
		var err error
		if kind < 4 {
			err = h.bfvOp(kind, next, inj)
		} else {
			err = h.ckksOp(kind, next, inj)
		}
		if err != nil {
			return fmt.Errorf("op %d (kind %d): %w", i, kind, err)
		}
	}
	return nil
}

// bfvOp runs one BFV operation on the long-lived scheduler and on a new one.
func (h *ReuseHarness) bfvOp(kind uint64, next func() uint64, inj *faults.Injector) error {
	tn := &h.bfv[next()%2]
	a := tn.pool[next()%uint64(len(tn.pool))]
	b := tn.pool[next()%uint64(len(tn.pool))]
	fresh, err := h.newBFV()
	if err != nil {
		return err
	}

	run := func(s *sched.Scheduler) (*fv.Ciphertext, sched.Report, error) {
		switch kind {
		case 0:
			return s.Add(a, b)
		case 2:
			return s.Rotate(a, tn.gk)
		}
		return s.Mul(a, b, tn.rk)
	}

	h.hw.C.SetInjector(inj)
	got, gotRep, gotErr := run(h.hw)
	h.hw.C.SetInjector(nil)
	if inj != nil {
		h.damaged(gotErr)
		return nil // the next operation is the test
	}
	want, wantRep, wantErr := run(fresh)
	if gotErr != nil || wantErr != nil {
		return fmt.Errorf("reused scheduler: %v, new scheduler: %v", gotErr, wantErr)
	}
	if gotRep != wantRep {
		return fmt.Errorf("reused scheduler reported %+v, a new one %+v", gotRep, wantRep)
	}
	if !got.Equal(want) {
		return fmt.Errorf("result differs between the reused and a new scheduler")
	}
	return nil
}

// ckksOp runs one CKKS operation at the harness's current point of the chain
// — MulRescale walks it down level by level, a new ciphertext restarts it at
// the top — so every level's chain co-processor is reused many times.
func (h *ReuseHarness) ckksOp(kind uint64, next func() uint64, inj *faults.Injector) error {
	// Keys exist for levels 1..L: at the bottom only Add is left.
	if h.ccur == nil || (kind != 4 && h.ccur.Level() < 1) {
		ct, err := h.freshCKKS(next)
		if err != nil {
			return err
		}
		h.ccur = ct
	}
	a := h.ccur
	run := func(s *sched.CKKSScheduler) (*ckks.Ciphertext, sched.Report, error) {
		switch kind {
		case 4:
			return s.Add(a, a)
		case 5:
			return s.MulRescale(a, a, h.crk)
		}
		return s.Rotate(a, 1, h.cgk)
	}
	fresh, err := h.newCKKS()
	if err != nil {
		return err
	}

	h.chw.SetInjector(inj)
	got, gotRep, gotErr := run(h.chw)
	h.chw.SetInjector(nil)
	want, wantRep, wantErr := run(fresh)
	if wantErr != nil {
		return wantErr
	}
	if kind == 5 {
		h.ccur = want // descend on the undamaged result
	}
	if inj != nil {
		h.damaged(gotErr)
		return nil
	}
	if gotErr != nil {
		return fmt.Errorf("reused scheduler: %w", gotErr)
	}
	if gotRep != wantRep {
		return fmt.Errorf("level %d: reused scheduler reported %+v, a new one %+v", a.Level(), gotRep, wantRep)
	}
	if !got.Equal(want) {
		return fmt.Errorf("level %d: result differs between the reused and a new scheduler", a.Level())
	}
	return nil
}
