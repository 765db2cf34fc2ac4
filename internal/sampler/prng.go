// Package sampler provides the random samplers the FV scheme needs: a
// deterministic AES-CTR pseudorandom generator, uniform sampling modulo the
// RNS primes, signed-binary/ternary sampling for secrets and the encryption
// randomness u, and a cumulative-distribution-table (CDT) discrete Gaussian
// sampler for the error distribution (the paper uses standard deviation 102,
// Sec. III-A).
package sampler

import (
	"crypto/aes"
	"crypto/cipher"
	cryptorand "crypto/rand"
	"encoding/binary"
	"io"
)

// PRNG is a deterministic cryptographic pseudorandom number generator based
// on AES-128 in counter mode. A fixed seed reproduces the exact stream,
// which the tests and the hardware/software cross-checks rely on.
type PRNG struct {
	stream cipher.Stream
	buf    [512]byte
	off    int
}

// NewPRNG returns a generator seeded with the 16-byte key derived from seed:
// 2^64 streams, for tests, benchmarks and the known-answer files.
func NewPRNG(seed uint64) *PRNG {
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	binary.LittleEndian.PutUint64(key[8:], seed^0x9e3779b97f4a7c15)
	return newKeyed(key)
}

// entropy is the source NewRandomPRNG draws its keys from.
var entropy io.Reader = cryptorand.Reader

// NewRandomPRNG returns a generator keyed with all 16 AES-128 key bytes
// drawn from the operating system's entropy source, for real key generation.
func NewRandomPRNG() *PRNG {
	var key [16]byte
	if _, err := io.ReadFull(entropy, key[:]); err != nil {
		panic("sampler: OS entropy source unavailable: " + err.Error())
	}
	return newKeyed(key)
}

// newKeyed returns the AES-128-CTR generator under key, zero IV.
func newKeyed(key [16]byte) *PRNG {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: the key size is fixed and valid
	}
	var iv [16]byte
	p := &PRNG{stream: cipher.NewCTR(block, iv[:])}
	p.refill()
	return p
}

func (p *PRNG) refill() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.stream.XORKeyStream(p.buf[:], p.buf[:])
	p.off = 0
}

// Uint64 returns the next 64 uniform bits.
func (p *PRNG) Uint64() uint64 {
	if p.off+8 > len(p.buf) {
		p.refill()
	}
	v := binary.LittleEndian.Uint64(p.buf[p.off:])
	p.off += 8
	return v
}

// Uint64n returns a uniform value in [0, n) by rejection sampling, which
// avoids the modulo bias a plain remainder would introduce.
func (p *PRNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sampler: Uint64n(0)")
	}
	if n&(n-1) == 0 {
		return p.Uint64() & (n - 1)
	}
	// Reject values in the final partial block [limit, 2^64).
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := p.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Bits returns the next k ≤ 64 uniform bits.
func (p *PRNG) Bits(k uint) uint64 {
	if k > 64 {
		panic("sampler: more than 64 bits requested")
	}
	if k == 64 {
		return p.Uint64()
	}
	return p.Uint64() & (1<<k - 1)
}
