package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
	"repro/internal/sampler"
)

const (
	swWarmup    = 4
	swGaloisElt = 3 // the first rotation key heserver installs
)

// swCycle is one pool entry of sw_eval: operands for the four evaluator
// calls of a request and the results they must reproduce.
type swCycle struct {
	fv      fvPair // want = Mul+relin of a and b
	fvRot   *fv.Ciphertext
	x       *ckks.Ciphertext
	ckksMul *ckks.Ciphertext // Mul+rescale of x with itself
	ckksRot *ckks.Ciphertext // x rotated by one slot
}

// swEval is the library workload: one caller straight on the evaluators, no
// serving stack and no simulator — the only place the fused software paths
// run on their own. The caller's fork-joins (poly.Pool) reach the second
// processor, so every request runs on both. That matters on a shared box,
// where each processor runs at full speed or at about 0.6 of it for seconds
// at a time, as the neighbours come and go: with one independent caller per
// processor half the requests sat on the slow one, the median request fell
// on the edge between the two speeds, and ten runs of the same code spread
// 23-30 % on latency_p50_ms (throughput 12 %); one caller whose requests
// average both processors spread 3 % (6 %) in the same hour. The price is
// poly.Pool's enlist-if-parked dispatch, which in a quiet hour makes a single
// caller's fork-joins run serially or in parallel in phases of seconds
// (README, "Steadiness").
type swEval struct {
	params  *fv.Params
	cparams *ckks.Params
	order   []int
	pool    []swCycle
	maxErr  float64

	rk  *fv.RelinKey
	gk  *fv.GaloisKey
	crk *ckks.RelinKey
	cgk *ckks.GaloisKey

	callers []swCaller
}

// swCaller is what one caller owns: an evaluator pair and a set of output
// buffers. The Into calls are the zero-allocation paths, and an evaluator
// serves one caller at a time.
type swCaller struct {
	ev   *fv.Evaluator
	cev  *ckks.Evaluator
	out  *fv.Ciphertext
	prod *ckks.Ciphertext
	down *ckks.Ciphertext
	rot  *ckks.Ciphertext
}

func swEvalSpec() spec {
	return spec{
		name:       "sw_eval",
		why:        "library clock: one caller loops fv MulInto, BFV Rotate, ckks MulInto+RescaleInto and CKKS Rotate at the paper sets, bypassing every serving layer and the simulator",
		maxClients: 1, warmup: swWarmup,
		setup: setupSWEval,
	}
}

func setupSWEval(seed uint64, callers int) (workload, error) {
	params, err := fv.NewParams(fv.PaperConfig(paperT))
	if err != nil {
		return nil, err
	}
	cparams, err := ckks.NewParams(ckks.PaperConfig())
	if err != nil {
		return nil, err
	}
	w := &swEval{params: params, cparams: cparams}
	top := cparams.MaxLevel()
	for c := 0; c < callers; c++ {
		w.callers = append(w.callers, swCaller{
			ev: fv.NewEvaluator(params), cev: ckks.NewEvaluator(cparams),
			out:  fv.NewCiphertext(params, 2),
			prod: ckks.NewCiphertext(cparams, 1, top),
			down: ckks.NewCiphertext(cparams, 1, top-1),
			rot:  ckks.NewCiphertext(cparams, 1, top),
		})
	}
	ev, cev := w.callers[0].ev, w.callers[0].cev

	kg := fv.NewKeyGenerator(params, sampler.NewPRNG(seed))
	sk, pk, rk := kg.GenKeys()
	w.rk, w.gk = rk, kg.GenGaloisKey(sk, swGaloisElt)
	in := genBFVInputs(seed, paperT, 1)
	w.order = in.order
	fvPool, err := buildFVPool(params, sk, pk, rk, in, true, seed)
	if err != nil {
		return nil, err
	}
	dec := fv.NewDecryptor(params, sk)

	ckg := ckks.NewKeyGenerator(cparams, sampler.NewPRNG(seed))
	csk, cpk, crk := ckg.GenKeys()
	w.crk, w.cgk = crk, ckg.GenGaloisKey(csk, cparams.GaloisElementForRotation(1))
	encoder := ckks.NewEncoder(cparams)
	cenc := ckks.NewEncryptor(cparams, cpk, sampler.NewPRNG(seed^keySeedSalt))
	cdec := ckks.NewDecryptor(cparams, csk)
	slots := genCKKSInputs(seed, cparams.Slots()).slots

	for i, p := range fvPool {
		c := swCycle{fv: p, fvRot: ev.ApplyGalois(p.a, w.gk)}
		plain := fv.NewPlaintext(params)
		copy(plain.Coeffs, in.a[i])
		if !dec.Decrypt(c.fvRot).Equal(fv.ApplyAutomorphismPlain(params, swGaloisElt, plain)) {
			return nil, fmt.Errorf("pool entry %d: the rotated ciphertext does not decrypt to the rotated plaintext", i)
		}
		pt, err := encoder.Encode(slots[i], top, cparams.DefaultScale())
		if err != nil {
			return nil, err
		}
		c.x = cenc.Encrypt(pt)
		c.ckksMul = cev.Rescale(cev.Mul(c.x, c.x, crk))
		c.ckksRot = cev.Rotate(c.x, 1, w.cgk)
		sq, ro := encoder.Decode(cdec.Decrypt(c.ckksMul)), encoder.Decode(cdec.Decrypt(c.ckksRot))
		for j, v := range slots[i] {
			w.maxErr = math.Max(w.maxErr, math.Abs(sq[j]-v*v))
			w.maxErr = math.Max(w.maxErr, math.Abs(ro[j]-slots[i][(j+1)%len(slots[i])]))
		}
		if w.maxErr > ckksSlotTol {
			return nil, fmt.Errorf("pool entry %d: CKKS results are off the cleartext by %g (tolerance %g)", i, w.maxErr, ckksSlotTol)
		}
		w.pool = append(w.pool, c)
	}
	return w, nil
}

func (w *swEval) clients() int              { return len(w.callers) }
func (w *swEval) engines() []*engine.Engine { return nil }
func (w *swEval) close() error              { return nil }

func (w *swEval) request(_ context.Context, rec *recorder, caller, seq int) (uint64, error) {
	me := &w.callers[caller]
	c := w.pool[w.order[(seq*len(w.callers)+caller)%orderLen]]
	id := uint64(caller)<<32 | uint64(seq)
	root := rec.begin("client.request", nil, id)
	defer root.end()

	sp := rec.begin("fv.Evaluator.MulInto", root, id)
	me.ev.MulInto(c.fv.a, c.fv.b, w.rk, me.out)
	sp.end()
	if !me.out.Equal(c.fv.want) {
		return 0, fmt.Errorf("fv MulInto: %w", errWrong)
	}
	sp = rec.begin("fv.Evaluator.ApplyGalois", root, id)
	rot := me.ev.ApplyGalois(c.fv.a, w.gk)
	sp.end()
	if !rot.Equal(c.fvRot) {
		return 0, fmt.Errorf("fv Rotate: %w", errWrong)
	}
	sp = rec.begin("ckks.Evaluator.MulInto+RescaleInto", root, id)
	me.cev.MulInto(c.x, c.x, w.crk, me.prod)
	me.cev.RescaleInto(me.prod, me.down)
	sp.end()
	if !me.down.Equal(c.ckksMul) {
		return 0, fmt.Errorf("ckks MulInto+RescaleInto: %w", errWrong)
	}
	sp = rec.begin("ckks.Evaluator.RotateInto", root, id)
	me.cev.RotateInto(c.x, 1, w.cgk, me.rot)
	sp.end()
	if !me.rot.Equal(c.ckksRot) {
		return 0, fmt.Errorf("ckks RotateInto: %w", errWrong)
	}
	return 0, nil
}

// ladder has the one rung there is: the evaluators are the floor.
func (w *swEval) ladder() ([]rung, func(), error) {
	return []rung{{"R5 evaluators", "client.ladder_floor_ms", func(i int) error {
		_, err := w.request(context.Background(), nil, 0, i)
		return err
	}}}, func() {}, nil
}

func (w *swEval) layers(m metricSet, _ *windowResult, _ *ladderResult) error {
	c := w.pool[0]
	fvLayers(m, w.params, w.rk, c.fv)
	fvRotateLayer(m, w.params, w.gk, c.fv.a)
	ckksEvaluatorLayers(m, w.cparams, w.crk, w.cgk, c.x)
	m.set("ckks.max_slot_err", w.maxErr)
	// The substrate at the BFV set: it is the wider basis (6+7 primes).
	return substrateLayers(m, w.params, w.rk, c.fv.a)
}
