// Package fv implements the Fan–Vercauteren somewhat-homomorphic encryption
// scheme (the paper's Sec. II-B) over the residue number system of
// Sec. III-B: key generation, encryption, decryption, homomorphic addition
// and multiplication with relinearization, integer and batch encoders, and
// an invariant-noise tracker. The multiplication pipeline follows the
// paper's Fig. 2 exactly — Lift q→Q, NTT-domain tensor product, Scale Q→q,
// WordDecomp and ReLin — with the HPS Lift and Scale (Sec. IV-C, IV-D). The
// paper's traditional CRT design point is priced, not run
// (sched.TraditionalMul).
package fv

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
)

// Config describes a parameter set before precomputation.
type Config struct {
	N         int     // ring degree (power of two)
	T         uint64  // plaintext modulus
	QCount    int     // primes in the ciphertext modulus q
	PCount    int     // extra primes forming Q = q·p
	PrimeBits int     // width of each RNS prime (the paper uses 30)
	Sigma     float64 // error distribution standard deviation
	// RelinLogW and RelinDepth were the traditional positional gadget's
	// digit width and count. Nothing reads them; they survive because the
	// key-file JSON header carries them (the KATs hash those bytes) and
	// bench/ compiles against them (ROADMAP item 1(a)).
	RelinLogW  uint
	RelinDepth int

	// PoolSize bounds the goroutine pool that fans RNS-limb work (NTT rows,
	// pointwise ops, Lift/Scale coefficient stripes) — the software analogue
	// of the paper's RPAU count. 0 selects min(GOMAXPROCS, poly.PaperRPAUs);
	// 1 forces the sequential path (bit-identical results either way).
	PoolSize int
}

// PaperConfig is the parameter set of the paper's Sec. III-A: n = 4096,
// q the product of six 30-bit primes (180 bits), Q extended by seven more
// (390 bits), σ = 102, supporting multiplicative depth 4 at ≥ 80-bit
// security. The plaintext modulus defaults to t = 2 as in the paper; pass a
// different t for the integer/batch encoders.
func PaperConfig(t uint64) Config {
	return Config{
		N: 4096, T: t, QCount: 6, PCount: 7, PrimeBits: 30,
		Sigma: 102, RelinLogW: 30, RelinDepth: 7,
	}
}

// TestConfig is a small, fast parameter set for unit tests: n = 256 with a
// 3+4 prime basis and a narrow error distribution.
func TestConfig(t uint64) Config {
	return Config{
		N: 256, T: t, QCount: 3, PCount: 4, PrimeBits: 30,
		Sigma: 3.2, RelinLogW: 30, RelinDepth: 4,
	}
}

// Params is a fully precomputed parameter set shared by all scheme objects.
type Params struct {
	Cfg Config

	QMods   []ring.Modulus // the q primes
	PMods   []ring.Modulus // the p primes
	AllMods []ring.Modulus // q then p

	QBasis *rns.Basis
	PBasis *rns.Basis

	// TrFull transforms over the full basis (Lift/tensor domain); TrQ is its
	// q-basis restriction (encryption, relinearization, decryption domain).
	TrFull *poly.Transformer
	TrQ    *poly.Transformer

	// Lifter extends q → p (the Lift q→Q of Fig. 2); Scaler computes
	// round(t·x/q) from the full basis back into q (Scale Q→q).
	Lifter *rns.Extender
	Scaler *rns.ScaleRounder

	// Pool fans per-limb and per-coefficient-stripe work across goroutines;
	// it is shared by the transformers, Lifter, and Scaler above, and by the
	// hardware simulator's RPAU loops.
	Pool *poly.Pool

	// msg scales messages into q on encryption (Δ = ⌊q/t⌋) and rounds t·x/q
	// back out on decryption.
	msg *rns.MessageScaler
}

// NewParams validates cfg, generates the NTT-friendly primes, and
// precomputes every table the scheme needs.
func NewParams(cfg Config) (*Params, error) {
	if cfg.N < 4 || cfg.N&(cfg.N-1) != 0 {
		return nil, fmt.Errorf("fv: ring degree %d must be a power of two ≥ 4", cfg.N)
	}
	if cfg.T < 2 {
		return nil, fmt.Errorf("fv: plaintext modulus %d too small", cfg.T)
	}
	if cfg.QCount < 1 || cfg.PCount < 1 {
		return nil, fmt.Errorf("fv: need at least one q and one p prime")
	}
	if cfg.Sigma <= 0 {
		return nil, fmt.Errorf("fv: sigma must be positive")
	}
	primes, err := ring.GenerateNTTPrimes(cfg.PrimeBits, cfg.N, cfg.QCount+cfg.PCount)
	if err != nil {
		return nil, err
	}
	p := &Params{Cfg: cfg}
	for i, pr := range primes {
		m := ring.NewModulus(pr)
		if m.Q == cfg.T {
			return nil, fmt.Errorf("fv: plaintext modulus collides with RNS prime %d", pr)
		}
		if i < cfg.QCount {
			p.QMods = append(p.QMods, m)
		} else {
			p.PMods = append(p.PMods, m)
		}
	}
	p.AllMods = append(append([]ring.Modulus(nil), p.QMods...), p.PMods...)
	if p.QBasis, err = rns.NewBasis(p.QMods); err != nil {
		return nil, err
	}
	if p.PBasis, err = rns.NewBasis(p.PMods); err != nil {
		return nil, err
	}
	// A tensor coefficient reaches n·q²/2, and Scale Q→q is exact only while
	// |t·x/q| < P/2 (DESIGN §4b): P must exceed t·n·q.
	tnq := new(big.Int).Mul(p.QBasis.Product, new(big.Int).SetUint64(cfg.T))
	tnq.Mul(tnq, big.NewInt(int64(cfg.N)))
	if p.PBasis.Product.Cmp(tnq) <= 0 {
		return nil, fmt.Errorf("fv: p basis too narrow: Scale needs P > t·n·q, but P has %d bits and t·n·q %d",
			p.PBasis.Product.BitLen(), tnq.BitLen())
	}
	if cfg.PoolSize == 0 {
		p.Pool = poly.NewDefaultPool()
	} else {
		p.Pool = poly.NewPool(cfg.PoolSize)
	}
	if p.TrFull, err = poly.NewTransformer(p.AllMods, cfg.N); err != nil {
		return nil, err
	}
	p.TrFull.Pool = p.Pool
	p.TrQ = p.TrFull.SubTransformer(cfg.QCount)
	if p.msg, err = rns.NewMessageScaler(p.QBasis, cfg.T); err != nil {
		return nil, err
	}
	if p.Lifter, err = rns.NewExtender(p.QBasis, p.PMods); err != nil {
		return nil, err
	}
	p.Lifter.Pool = p.Pool
	if p.Scaler, err = rns.NewScaleRounder(p.QBasis, p.PBasis, cfg.T); err != nil {
		return nil, err
	}
	p.Scaler.Pool = p.Pool
	return p, nil
}

// N returns the ring degree.
func (p *Params) N() int { return p.Cfg.N }

// T returns the plaintext modulus.
func (p *Params) T() uint64 { return p.Cfg.T }

// LogQ returns the bit length of the ciphertext modulus q.
func (p *Params) LogQ() int { return p.QBasis.Product.BitLen() }

// LogBigQ returns the bit length of the extended modulus Q = q·p.
func (p *Params) LogBigQ() int { return p.Scaler.QP.Product.BitLen() }

// SecurityBits returns a coarse security estimate for the parameter set,
// interpolated from the Homomorphic Encryption Standard tables (classical
// cost model). The paper's set (n = 4096, log q = 180) rates ≥ 80 bits per
// the Albrecht LWE estimator it cites; this table-based estimate is a
// labeling aid, not a substitute for running an estimator.
func (p *Params) SecurityBits() int {
	// Max log q for 128-bit classical security per the HES standard.
	std128 := map[int]int{1024: 27, 2048: 54, 4096: 109, 8192: 218, 16384: 438, 32768: 881}
	ref, ok := std128[p.Cfg.N]
	if !ok {
		if p.Cfg.N < 1024 {
			return 0 // toy parameters
		}
		ref = 881 * p.Cfg.N / 32768 // extrapolate linearly in n
	}
	// Security scales roughly like n/log q; anchor 128 bits at the standard
	// ratio.
	est := 128 * ref / p.LogQ()
	if est > 256 {
		est = 256
	}
	return est
}

// SupportedDepth returns an estimate of the multiplicative depth the
// parameter set supports for fresh ciphertexts, by simulating the invariant
// noise growth bound (see noise.go for the measured counterpart).
func (p *Params) SupportedDepth() int {
	// Fresh invariant noise ≈ t·(2σ√(2n)+1)/q; each multiplication scales
	// noise by ≈ 2·t·n (dominant term of the FV bound). Depth d is supported
	// while noise < 1/2.
	logNoise := logT(p.Cfg.T) + logSigmaTerm(p.Cfg.Sigma, p.Cfg.N) - float64(p.LogQ())
	logGrowth := 1 + logT(p.Cfg.T) + logN(p.Cfg.N)
	depth := 0
	for logNoise+logGrowth < -1 && depth < 64 {
		logNoise += logGrowth
		depth++
	}
	return depth
}

func logT(t uint64) float64 { return float64(bits.Len64(t)) }

func logN(n int) float64 { return float64(bits.Len64(uint64(n))) }

func logSigmaTerm(sigma float64, n int) float64 {
	// log2(2σ√(2n)) as the bit length of the rounded value — precision is
	// irrelevant at this granularity.
	v := uint64(2 * sigma * math.Sqrt(2*float64(n)))
	if v == 0 {
		v = 1
	}
	return float64(bits.Len64(v))
}
