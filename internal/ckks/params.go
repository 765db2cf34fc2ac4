// Package ckks implements the CKKS approximate-arithmetic scheme (Cheon–
// Kim–Kim–Song) as a second binding of the repo's RNS-NTT substrate: the
// same residue rows, NTT kernels, pooled dispatch, and gadget key-switch
// core (internal/rlwe) that internal/fv binds to exact BFV arithmetic, here
// bound to fixed-point arithmetic on real-valued SIMD slots. Messages are
// vectors of N/2 floats carried in the canonical embedding at a scale Δ;
// multiplication squares the scale and Rescale divides it back down by
// dropping the top prime of a level-tracked modulus chain — the managed
// error is the price of native real arithmetic, which is what encrypted ML
// inference wants.
package ckks

import (
	"fmt"
	"math"

	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
)

// Config selects a CKKS parameter set.
type Config struct {
	// N is the ring degree (power of two); the scheme packs N/2 real slots.
	N int
	// LogScale is the fresh encoding scale: Δ = 2^LogScale.
	LogScale int
	// QCount is the modulus-chain length L+1: a fresh ciphertext sits at
	// level L and each Rescale consumes one level.
	QCount int
	// PrimeBits is the chain prime width. The rescale primes approximate Δ,
	// so PrimeBits should equal LogScale (the exact per-prime deviation is
	// tracked in the ciphertext scale). Must stay ≤ 31: residues are
	// serialized and DMA-transferred as 32-bit words, like the BFV set.
	PrimeBits int
	// Sigma is the error distribution's standard deviation.
	Sigma float64
	// PoolSize caps the dispatch pool (0 = min(GOMAXPROCS, 7), the paper's
	// RPAU count; see poly.NewDefaultPool).
	PoolSize int
}

// TestConfig is a small set for unit tests: n=256 (128 slots), a six-prime
// chain (depth 5) of 30-bit primes.
func TestConfig() Config {
	return Config{N: 256, LogScale: 30, QCount: 6, PrimeBits: 30, Sigma: 3.2}
}

// PaperConfig scales the chain to the paper's ring (n = 4096, 30-bit
// primes), chain length 6 — the CKKS analogue of the BFV paper set, sharing
// its RPAU shapes.
func PaperConfig() Config {
	return Config{N: 4096, LogScale: 30, QCount: 6, PrimeBits: 30, Sigma: 3.2}
}

// Params holds the derived constants of a Config: the prime chain, the
// per-level bases and transformers, the shared rescaler, and the dispatch
// pool.
type Params struct {
	Cfg Config

	// QMods is the full chain q_0..q_L; a ciphertext at level ℓ has rows
	// over the prefix q_0..q_ℓ.
	QMods []ring.Modulus

	// PMod is the keyswitch special prime p*: keys encrypt p*·g_i·payload
	// over (q_0..q_ℓ, p*) and the SoP ModDowns by p*, dividing the keyswitch
	// noise with it — without this a message at scale Δ ≈ one prime would
	// drown under the gadget noise on every rotation. AllMods appends it to
	// the chain (secret-key rows cover all of it; ciphertexts never do).
	PMod    ring.Modulus
	AllMods []ring.Modulus

	// Tr transforms AllMods (key material); TrLevel[ℓ] the (ℓ+1)-row chain
	// prefix (ciphertexts); TrKS[ℓ] the keyswitch rows (q_0..q_ℓ, p*).
	Tr      *poly.Transformer
	TrLevel []*poly.Transformer
	TrKS    []*poly.Transformer

	// BasisLevel[ℓ] is the CRT basis of the prefix q_0..q_ℓ (the encoder's
	// CRT); the top one, BasisLevel[L], is the gadget (digit) basis of the
	// key-switch keys at every level. KSMods[ℓ] is the extended row set a
	// level-ℓ key switch runs over.
	BasisLevel []*rns.Basis
	KSMods     [][]ring.Modulus

	// Rescaler divides by the top prime of any chain prefix (shared with the
	// simulator's Rescale unit, as RescalerKS and the other per-level views
	// are with its chain co-processor). RescalerKS[ℓ] drops the p* row after
	// a level-ℓ keyswitch SoP — ModDown is the same kernel pointed at the
	// special prime.
	Rescaler   *rns.Rescaler
	RescalerKS []*rns.Rescaler

	Pool *poly.Pool
}

// NewParams validates cfg and precomputes the chain.
func NewParams(cfg Config) (*Params, error) {
	if cfg.N < 8 || cfg.N&(cfg.N-1) != 0 {
		return nil, fmt.Errorf("ckks: n must be a power of two ≥ 8, got %d", cfg.N)
	}
	if cfg.QCount < 2 {
		return nil, fmt.Errorf("ckks: need a chain of ≥ 2 primes (got %d) — one rescale consumes one", cfg.QCount)
	}
	if cfg.PrimeBits < 20 || cfg.PrimeBits > 31 {
		return nil, fmt.Errorf("ckks: prime bits must be in [20, 31], got %d", cfg.PrimeBits)
	}
	if cfg.LogScale < 10 || cfg.LogScale > 50 {
		return nil, fmt.Errorf("ckks: log scale must be in [10, 50], got %d", cfg.LogScale)
	}
	if cfg.Sigma <= 0 {
		return nil, fmt.Errorf("ckks: sigma must be positive, got %g", cfg.Sigma)
	}
	// QCount chain primes plus one keyswitch special prime, all NTT-friendly
	// and distinct. The special prime sits last so chain prefixes stay
	// contiguous.
	primes, err := ring.GenerateNTTPrimes(cfg.PrimeBits, cfg.N, cfg.QCount+1)
	if err != nil {
		return nil, err
	}
	p := &Params{Cfg: cfg}
	for _, pr := range primes[:cfg.QCount] {
		p.QMods = append(p.QMods, ring.NewModulus(pr))
	}
	p.PMod = ring.NewModulus(primes[cfg.QCount])
	p.AllMods = append(append([]ring.Modulus{}, p.QMods...), p.PMod)
	if cfg.PoolSize > 0 {
		p.Pool = poly.NewPool(cfg.PoolSize)
	} else {
		p.Pool = poly.NewDefaultPool()
	}
	if p.Tr, err = poly.NewTransformer(p.AllMods, cfg.N); err != nil {
		return nil, err
	}
	p.Tr.Pool = p.Pool
	pTable := p.Tr.Tables[cfg.QCount]
	p.TrLevel = make([]*poly.Transformer, cfg.QCount)
	p.TrKS = make([]*poly.Transformer, cfg.QCount)
	p.BasisLevel = make([]*rns.Basis, cfg.QCount)
	p.KSMods = make([][]ring.Modulus, cfg.QCount)
	p.RescalerKS = make([]*rns.Rescaler, cfg.QCount)
	for l := 0; l < cfg.QCount; l++ {
		p.TrLevel[l] = p.Tr.SubTransformer(l + 1)
		b, err := rns.NewBasis(p.QMods[:l+1])
		if err != nil {
			return nil, err
		}
		p.BasisLevel[l] = b
		// Keyswitch rows: the chain prefix plus p*. The tables compose from
		// the full transformer's — per-prime NTT rows are independent.
		p.KSMods[l] = append(append([]ring.Modulus{}, p.QMods[:l+1]...), p.PMod)
		tabs := append(append([]*poly.NTTTable{}, p.Tr.Tables[:l+1]...), pTable)
		p.TrKS[l] = &poly.Transformer{Tables: tabs, Pool: p.Pool}
		p.RescalerKS[l] = rns.NewRescaler(p.KSMods[l])
	}
	p.Rescaler = rns.NewRescaler(p.QMods)
	return p, nil
}

// N returns the ring degree.
func (p *Params) N() int { return p.Cfg.N }

// Slots returns the SIMD width N/2.
func (p *Params) Slots() int { return p.Cfg.N / 2 }

// MaxLevel returns the level of a fresh ciphertext, L = QCount-1.
func (p *Params) MaxLevel() int { return p.Cfg.QCount - 1 }

// DefaultScale returns the fresh encoding scale Δ = 2^LogScale.
func (p *Params) DefaultScale() float64 { return math.Exp2(float64(p.Cfg.LogScale)) }

// LogQ returns log2 of the full chain product.
func (p *Params) LogQ() float64 {
	logq := 0.0
	for _, m := range p.QMods {
		logq += math.Log2(float64(m.Q))
	}
	return logq
}
