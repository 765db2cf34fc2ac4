package difftest

import (
	"fmt"

	"repro/internal/ckks"
	"repro/internal/hwsim"
	"repro/internal/sampler"
	"repro/internal/sched"
)

// CKKSHarness is the approximate-arithmetic differential rig: the same slot
// vectors pushed through the pure-software ckks.Evaluator and the scheduled
// chain accelerator, requiring bit-identical ciphertexts. CKKS is exact as
// a computation on residues — the approximation lives in the encoding — so
// the hardware path has no tolerance to hide behind.
type CKKSHarness struct {
	Params *ckks.Params

	SK  *ckks.SecretKey
	Enc *ckks.Encryptor
	Dec *ckks.Decryptor
	Ev  *ckks.Evaluator
	Cod *ckks.Encoder
	RK  *ckks.RelinKey
	HW  *sched.CKKSScheduler
}

// NewCKKS builds a CKKS differential harness over cfg with deterministic
// keys from keySeed.
func NewCKKS(cfg ckks.Config, keySeed uint64) (*CKKSHarness, error) {
	params, err := ckks.NewParams(cfg)
	if err != nil {
		return nil, err
	}
	prng := sampler.NewPRNG(keySeed)
	kg := ckks.NewKeyGenerator(params, prng)
	sk, pk, rk := kg.GenKeys()
	return &CKKSHarness{
		Params: params,
		SK:     sk,
		Enc:    ckks.NewEncryptor(params, pk, prng),
		Dec:    ckks.NewDecryptor(params, sk),
		Ev:     ckks.NewEvaluator(params),
		Cod:    ckks.NewEncoder(params),
		RK:     rk,
		HW:     sched.NewCKKS(params, hwsim.DefaultTiming()),
	}, nil
}

// CiphertextFromSeed derives a fresh max-level ciphertext whose slots are
// deterministic values in [-1, 1) expanded from the byte seed.
func (h *CKKSHarness) CiphertextFromSeed(seed []byte) (*ckks.Ciphertext, error) {
	next := splitmix64(seed)
	vals := make([]float64, h.Params.Slots())
	for i := range vals {
		vals[i] = float64(int64(next()%2000))/1000.0 - 1.0
	}
	pt, err := h.Cod.Encode(vals, h.Params.MaxLevel(), h.Params.DefaultScale())
	if err != nil {
		return nil, err
	}
	return h.Enc.Encrypt(pt), nil
}

// DiffMulRescale multiplies the two ciphertexts with relinearization and
// the trailing chain Rescale on the scheduled accelerator and in pure
// software, and requires bit-identical ciphertexts (scale included) and
// bit-identical decryptions — at every chain level down to 1, by squaring
// the software result and re-diffing until the chain is spent.
func (h *CKKSHarness) DiffMulRescale(ca, cb *ckks.Ciphertext) error {
	for ca.Level() >= 1 {
		sw := h.Ev.Rescale(h.Ev.Mul(ca, cb, h.RK))
		hw, _, err := h.HW.MulRescale(ca, cb, h.RK)
		if err != nil {
			return err
		}
		if !hw.Equal(sw) {
			return fmt.Errorf("level %d: accelerator MulRescale ciphertext differs from software", ca.Level())
		}
		if !h.Dec.Decrypt(hw).Value.Equal(h.Dec.Decrypt(sw).Value) {
			return fmt.Errorf("level %d: accelerator and software decryptions differ", ca.Level())
		}
		ca, cb = sw, sw // descend the chain by squaring
	}
	return nil
}
