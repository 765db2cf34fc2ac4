package fv

import (
	"fmt"

	"repro/internal/poly"
	"repro/internal/rlwe"
	"repro/internal/rns"
)

// Galois automorphisms σ_g: a(x) ↦ a(x^g) mod (x^n + 1) for odd g, together
// with the key-switching keys that bring σ_g(c1)'s key σ_g(s) back to s.
// Automorphisms permute the batch encoder's SIMD slots, enabling rotations —
// the natural extension of the paper's architecture toward the richer
// SIMD workloads (the underlying SoP datapath is exactly the ReLin one, so
// the co-processor would execute these with the same instruction mix).

// ApplyAutomorphismPlain applies σ_g to a plaintext polynomial (mod t).
func ApplyAutomorphismPlain(params *Params, g int, pt *Plaintext) *Plaintext {
	n := params.N()
	t := params.Cfg.T
	out := NewPlaintext(params)
	for i := 0; i < n; i++ {
		j := (i * g) % (2 * n)
		v := pt.Coeffs[i] % t
		if j >= n {
			j -= n
			if v != 0 {
				v = t - v
			}
		}
		out.Coeffs[j] = v
	}
	return out
}

// GaloisKey switches σ_g(s) back to s, with the same RNS gadget as the
// relinearization key.
type GaloisKey struct {
	G      int
	Ks0Hat []poly.RNSPoly
	Ks1Hat []poly.RNSPoly
}

// GenGaloisKey derives the key-switching key for the automorphism g
// (odd, 1 ≤ g < 2n).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g int) *GaloisKey {
	p := kg.params
	n := p.N()
	if err := rlwe.CheckGaloisElement(g, n); err != nil {
		panic(err)
	}
	// σ_g(s) in the NTT domain.
	sGHat := rlwe.Automorph(g, sk.S)
	p.TrQ.Forward(sGHat)

	gadgets := rns.GadgetRNS(p.QBasis)
	gk := &GaloisKey{G: g}
	// ks_i = (-(a·s + e) + g_i·σ_g(s), a): the shared gadget construction
	// with payload σ_g(s).
	gk.Ks0Hat, gk.Ks1Hat = rlwe.GenGadgetKey(kg.prng, kg.gauss, p.TrQ, p.QMods, n, gadgets, sk.SHat, sGHat)
	return gk
}

// ApplyGalois computes an encryption of σ_g(m) from an encryption of m:
// both ciphertext polynomials pass through the automorphism, and the c1
// component is key-switched from σ_g(s) back to s via the gadget SoP —
// exactly the relinearization datapath with a different key.
func (ev *Evaluator) ApplyGalois(ct *Ciphertext, gk *GaloisKey) *Ciphertext {
	if len(ct.Els) != 2 {
		panic("fv: ApplyGalois expects a degree-1 ciphertext")
	}
	c0 := rlwe.Automorph(gk.G, ct.Els[0])
	c1 := rlwe.Automorph(gk.G, ct.Els[1])
	return ev.keySwitch(c0, c1, gk.Ks0Hat, gk.Ks1Hat)
}

// SumSlotsKeys generates the ⌈log2 n⌉ + 1 Galois keys SumSlots needs: the
// doubling chain 3^(2^j) mod 2n plus the conjugation element 2n-1.
func (kg *KeyGenerator) SumSlotsKeys(sk *SecretKey) []*GaloisKey {
	n := kg.params.N()
	var keys []*GaloisKey
	g := 3
	for steps := 1; steps < n/2; steps *= 2 {
		keys = append(keys, kg.GenGaloisKey(sk, g))
		g = g * g % (2 * n)
	}
	keys = append(keys, kg.GenGaloisKey(sk, 2*n-1))
	return keys
}

// SumSlots computes, from a batched ciphertext, an encryption whose every
// slot holds the sum of all input slots — the reduction primitive behind
// encrypted dot products and aggregate statistics. It uses the standard
// doubling trick: the subgroup ⟨σ_3⟩ covers half the slots, s ← s + σ(s)
// log2(n/2) times sums over that orbit, and one conjugation σ_{2n-1} folds
// in the other coset. Cost: ⌈log2 n⌉ + 1 key switches, no multiplications.
func (ev *Evaluator) SumSlots(ct *Ciphertext, keys []*GaloisKey) *Ciphertext {
	n := ev.params.N()
	want := 1
	for steps := 1; steps < n/2; steps *= 2 {
		want++
	}
	if len(keys) != want {
		panic(fmt.Sprintf("fv: SumSlots needs %d keys (from SumSlotsKeys), got %d", want, len(keys)))
	}
	acc := ct
	for i := 0; i < len(keys)-1; i++ {
		acc = ev.Add(acc, ev.ApplyGalois(acc, keys[i]))
	}
	conj := keys[len(keys)-1]
	return ev.Add(acc, ev.ApplyGalois(acc, conj))
}

// SlotPermutation returns the permutation σ_g induces on the batch
// encoder's SIMD slots: perm[i] is the slot where slot i's value lands
// after ApplyGalois with element g. Computed once per g by tracing a
// distinct-valued vector through encode → σ_g → decode, then cached.
func (e *BatchEncoder) SlotPermutation(params *Params, g int) ([]int, error) {
	n := params.N()
	if uint64(n)+1 >= params.Cfg.T {
		return nil, fmt.Errorf("fv: slot tracing needs t > n+1")
	}
	if err := rlwe.CheckGaloisElement(g, n); err != nil {
		return nil, err
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i + 1) // distinct, non-zero
	}
	pt, err := e.Encode(vals)
	if err != nil {
		return nil, err
	}
	moved := ApplyAutomorphismPlain(params, g, pt)
	decoded := e.Decode(moved)
	where := make(map[uint64]int, n)
	for slot, v := range decoded {
		where[v] = slot
	}
	perm := make([]int, n)
	for i := range vals {
		slot, ok := where[vals[i]]
		if !ok {
			return nil, fmt.Errorf("fv: automorphism %d does not permute slots (value %d lost)", g, vals[i])
		}
		perm[i] = slot
	}
	return perm, nil
}
