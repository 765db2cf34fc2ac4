// Package difftest cross-checks the pure-software FV pipeline against the
// hardware simulator instruction-by-instruction. The paper's correctness
// claim is that the co-processor computes exactly what the scheme's software
// reference computes — not approximately, bit for bit — so every kernel pair
// (Transformer vs OpNTT/OpINTT, RNSPoly arithmetic vs OpCMul/OpCAdd/OpCSub/
// OpCMac, Evaluator.Mul vs the scheduled co-processor Mult with
// relinearization) must produce identical residues. The harness here feeds
// both sides the same deterministic inputs and reports the first divergence;
// the package's tests drive it with fixed vectors and Go fuzz corpora.
package difftest

import (
	"fmt"

	"repro/internal/fv"
	"repro/internal/hwsim"
	"repro/internal/poly"
	"repro/internal/sampler"
	"repro/internal/sched"
)

// Harness owns one software parameter set and one co-processor built over
// the same primes, plus the key material for scheme-level comparisons.
type Harness struct {
	Params *fv.Params
	Coproc *hwsim.Coprocessor

	SK  *fv.SecretKey
	Enc *fv.Encryptor
	Dec *fv.Decryptor
	Ev  *fv.Evaluator
	RK  *fv.RelinKey
	// HW is the scheduler of a second co-processor, the one the
	// scheme-level comparisons run on.
	HW *sched.Scheduler
}

// New builds a harness over cfg with deterministic keys from keySeed.
func New(cfg fv.Config, keySeed uint64) (*Harness, error) {
	params, err := fv.NewParams(cfg)
	if err != nil {
		return nil, err
	}
	cop, err := hwsim.New(params.QMods, params.PMods, params.N(),
		params.Lifter, params.Scaler, hwsim.DefaultTiming(), 8)
	if err != nil {
		return nil, err
	}
	hw, err := sched.NewDefault(params)
	if err != nil {
		return nil, err
	}
	prng := sampler.NewPRNG(keySeed)
	kg := fv.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	return &Harness{
		Params: params,
		Coproc: cop,
		SK:     sk,
		Enc:    fv.NewEncryptor(params, pk, prng),
		Dec:    fv.NewDecryptor(params, sk),
		Ev:     fv.NewEvaluator(params),
		RK:     rk,
		HW:     hw,
	}, nil
}

// splitmix64 expands a byte seed into a deterministic uint64 stream; the
// same seed always drives both sides of a comparison with the same data.
func splitmix64(seed []byte) func() uint64 {
	s := uint64(0x9e3779b97f4a7c15)
	for _, b := range seed {
		s = (s ^ uint64(b)) * 0xbf58476d1ce4e5b9
	}
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// FullPolyFromSeed derives a full-basis (q then p rows) RNS polynomial with
// uniformly reduced residues from a byte seed.
func (h *Harness) FullPolyFromSeed(seed []byte) poly.RNSPoly {
	next := splitmix64(seed)
	x := poly.NewRNSPoly(h.Params.AllMods, h.Params.N())
	for i, m := range h.Params.AllMods {
		for c := range x.Rows[i].Coeffs {
			x.Rows[i].Coeffs[c] = m.Reduce(next())
		}
	}
	return x
}

// PlaintextFromSeed derives a plaintext with coefficients reduced mod t.
func (h *Harness) PlaintextFromSeed(seed []byte) *fv.Plaintext {
	next := splitmix64(seed)
	pt := fv.NewPlaintext(h.Params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = next() % h.Params.T()
	}
	return pt
}

// loadFull loads a full-basis polynomial into a co-processor slot in the
// coefficient domain (both batches).
func (h *Harness) loadFull(slot uint8, x poly.RNSPoly) {
	kq := h.Coproc.KQ
	h.Coproc.LoadSlotCoeff(slot, 0, x.Rows[:kq])
	h.Coproc.LoadSlotCoeff(slot, kq, x.Rows[kq:])
}

// readFull reads a full-basis slot back.
func (h *Harness) readFull(slot uint8) []poly.Poly {
	rows := poly.NewRNSPoly(h.Params.AllMods, h.Params.N()).Rows
	h.Coproc.ReadSlotInto(slot, 0, rows)
	return rows
}

// execBothBatches issues in for BatchQ and BatchP (full-basis coverage).
func (h *Harness) execBothBatches(in hwsim.Instr) error {
	for _, b := range []hwsim.Batch{hwsim.BatchQ, hwsim.BatchP} {
		in.Batch = b
		if _, err := h.Coproc.Exec(in); err != nil {
			return err
		}
	}
	return nil
}

func diffRows(what string, got []poly.Poly, want poly.RNSPoly) error {
	for i := range want.Rows {
		if !got[i].Equal(want.Rows[i]) {
			for c := range want.Rows[i].Coeffs {
				if got[i].Coeffs[c] != want.Rows[i].Coeffs[c] {
					return fmt.Errorf("%s diverges at row %d coeff %d: hw=%d sw=%d",
						what, i, c, got[i].Coeffs[c], want.Rows[i].Coeffs[c])
				}
			}
		}
	}
	return nil
}

// DiffTransform runs the forward and inverse transforms on both sides and
// returns the first divergence (nil when bit-identical). The input is not
// modified.
func (h *Harness) DiffTransform(x poly.RNSPoly) error {
	sw := x.Clone()
	h.Params.TrFull.Forward(sw)

	h.Coproc.ClearSlots()
	h.loadFull(0, x)
	if err := h.execBothBatches(hwsim.Instr{Op: hwsim.OpNTT, A: 0}); err != nil {
		return err
	}
	if err := diffRows("NTT", h.readFull(0), sw); err != nil {
		return err
	}
	if err := h.execBothBatches(hwsim.Instr{Op: hwsim.OpINTT, A: 0}); err != nil {
		return err
	}
	// The inverse of the forward must restore the original exactly.
	return diffRows("NTT/INTT round trip", h.readFull(0), x)
}

// DiffPointwise runs coefficient-wise add, sub, mul, and mac on both sides
// and returns the first divergence.
func (h *Harness) DiffPointwise(a, b poly.RNSPoly) error {
	mods := h.Params.AllMods
	n := h.Params.N()
	sum := poly.NewRNSPoly(mods, n)
	dif := poly.NewRNSPoly(mods, n)
	mac := poly.NewRNSPoly(mods, n)
	a.AddInto(b, sum)
	a.SubInto(b, dif)
	a.MulInto(b, mac)
	a.MulAddInto(b, mac) // mac = 2·a⊙b

	h.Coproc.ClearSlots()
	h.loadFull(0, a)
	h.loadFull(1, b)
	steps := []hwsim.Instr{
		{Op: hwsim.OpCAdd, Dst: 2, A: 0, B: 1},
		{Op: hwsim.OpCSub, Dst: 3, A: 0, B: 1},
		{Op: hwsim.OpCMul, Dst: 4, A: 0, B: 1},
		{Op: hwsim.OpCMac, Dst: 4, A: 0, B: 1},
	}
	for _, in := range steps {
		if err := h.execBothBatches(in); err != nil {
			return err
		}
	}
	if err := diffRows("CAdd", h.readFull(2), sum); err != nil {
		return err
	}
	if err := diffRows("CSub", h.readFull(3), dif); err != nil {
		return err
	}
	return diffRows("CMul+CMac", h.readFull(4), mac)
}

// DiffMul encrypts the two plaintexts, multiplies with relinearization on
// the scheduled accelerator and in pure software, and requires bit-identical
// ciphertexts and identical decryptions.
func (h *Harness) DiffMul(ptA, ptB *fv.Plaintext) error {
	ca, cb := h.Enc.Encrypt(ptA), h.Enc.Encrypt(ptB)

	sw := h.Ev.Mul(ca, cb, h.RK)
	// The one-shot path and the explicit tensor+relinearize path must agree
	// before the hardware comparison means anything.
	if two := h.Ev.Relinearize(h.Ev.MulNoRelin(ca, cb), h.RK); !sw.Equal(two) {
		return fmt.Errorf("software Mul != Relinearize(MulNoRelin)")
	}
	hw, _, err := h.HW.Mul(ca, cb, h.RK)
	if err != nil {
		return err
	}
	if !hw.Equal(sw) {
		return fmt.Errorf("accelerator Mul ciphertext differs from software")
	}
	if !h.Dec.Decrypt(hw).Equal(h.Dec.Decrypt(sw)) {
		return fmt.Errorf("accelerator and software decryptions differ")
	}
	return nil
}

// DiffAdd is DiffMul's counterpart for homomorphic addition.
func (h *Harness) DiffAdd(ptA, ptB *fv.Plaintext) error {
	ca, cb := h.Enc.Encrypt(ptA), h.Enc.Encrypt(ptB)
	sw := h.Ev.Add(ca, cb)
	hw, _, err := h.HW.Add(ca, cb)
	if err != nil {
		return err
	}
	if !hw.Equal(sw) {
		return fmt.Errorf("accelerator Add ciphertext differs from software")
	}
	return nil
}
