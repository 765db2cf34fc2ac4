package ring

import "math/bits"

// Flat vector kernels over a single residue row — the software rendition of
// the paper's RPAU datapath, in the Intel-HEXL style: one pass over
// contiguous []uint64 slices with the modulus and Barrett constant held in
// registers and the bounds checks hoisted by re-slicing every operand to the
// destination length before the loop. The scalar methods (Add, Mul, ...)
// remain the reference semantics; these produce bit-identical results.
//
// All inputs are expected reduced (< Q) unless stated otherwise; outputs are
// always fully reduced. Destinations may alias any operand: every kernel is
// a pure coefficient-wise map.
//
// A kernel that calls m.simd hands the row to the vector unit first and runs
// its own loop — the reference semantics — over whatever is left: the tail of
// a row whose length is not a multiple of four, or all of it. Operand lanes
// must then be below 2^32, as every residue is (MaxModulusBits); the vector
// unit and its dispatch rule are described at simd (vec_amd64.go).

// vecOp names a kernel to m.simd, the one entry point of the vector unit (a
// stub that takes no lanes where there is none, vec_generic.go).
type vecOp int

const (
	opAdd           vecOp = iota // VecAddInto
	opSub                        // VecSubInto
	opReduceOnce                 // VecReduceOnceInto
	opMul                        // VecMulInto
	opMulAdd                     // VecMulAddInto
	opTensor                     // VecTensorInto
	opMulRaw                     // VecMulRawInto
	opMulAddRaw                  // VecMulAddRawInto
	opReduce                     // VecReduceInto
	opExtendFinish               // VecExtendFinishInto
	opRescale                    // VecRescaleInto
	opShoup                      // VecScalarMulShoupInto, VecScalarMulInto
	opShoupLazy                  // VecScalarMulShoupLazyInto
	opShoupLazyAdd               // VecScalarMulShoupLazyAddInto
	opShoupLazyAdd2              // VecScalarMulShoupLazyAdd2Into
)

// VecAddInto sets dst[i] = (a[i] + b[i]) mod Q.
func (m Modulus) VecAddInto(dst, a, b []uint64) {
	q := m.Q
	a = a[:len(dst)]
	b = b[:len(dst)]
	done := m.simd(opAdd, nil, dst, a, b)
	dst, a, b = dst[done:], a[done:], b[done:]
	for i := range dst {
		s := a[i] + b[i]
		if s >= q {
			s -= q
		}
		dst[i] = s
	}
}

// VecSubInto sets dst[i] = (a[i] - b[i]) mod Q.
func (m Modulus) VecSubInto(dst, a, b []uint64) {
	q := m.Q
	a = a[:len(dst)]
	b = b[:len(dst)]
	done := m.simd(opSub, nil, dst, a, b)
	dst, a, b = dst[done:], a[done:], b[done:]
	for i := range dst {
		x := a[i]
		d := x - b[i]
		if d > x { // borrow
			d += q
		}
		dst[i] = d
	}
}

// VecNegInto sets dst[i] = -a[i] mod Q.
func (m Modulus) VecNegInto(dst, a []uint64) {
	q := m.Q
	a = a[:len(dst)]
	for i := range dst {
		x := a[i]
		if x != 0 {
			x = q - x
		}
		dst[i] = x
	}
}

// VecMulInto sets dst[i] = a[i]·b[i] mod Q by one Barrett pass per lane
// (products of two reduced residues stay below 2^62).
func (m Modulus) VecMulInto(dst, a, b []uint64) {
	q, bhi := m.Q, m.barrettHi
	a = a[:len(dst)]
	b = b[:len(dst)]
	done := m.simd(opMul, nil, dst, a, b)
	dst, a, b = dst[done:], a[done:], b[done:]
	for i := range dst {
		x := a[i] * b[i]
		r := x - mulHi(x, bhi)*q
		if r >= q {
			r -= q
		}
		if r >= q {
			r -= q
		}
		dst[i] = r
	}
}

// VecMulAddInto sets dst[i] = (dst[i] + a[i]·b[i]) mod Q — the fused
// multiply-accumulate lane of the relinearization sum-of-products.
func (m Modulus) VecMulAddInto(dst, a, b []uint64) {
	q, bhi := m.Q, m.barrettHi
	a = a[:len(dst)]
	b = b[:len(dst)]
	done := m.simd(opMulAdd, nil, dst, a, b)
	dst, a, b = dst[done:], a[done:], b[done:]
	for i := range dst {
		x := a[i] * b[i]
		r := x - mulHi(x, bhi)*q
		if r >= q {
			r -= q
		}
		if r >= q {
			r -= q
		}
		s := dst[i] + r
		if s >= q {
			s -= q
		}
		dst[i] = s
	}
}

// VecScalarMulInto sets dst[i] = c·a[i] mod Q for a scalar c (any 64-bit
// value; it is reduced once up front). The vector unit runs it as the Shoup
// product by the reduced c — the same canonical word.
func (m Modulus) VecScalarMulInto(dst, a []uint64, c uint64) {
	c = m.Reduce(c)
	q, bhi := m.Q, m.barrettHi
	a = a[:len(dst)]
	done := m.simd(opShoup, []uint64{c, m.ShoupPrecomp(c)}, dst, a)
	dst, a = dst[done:], a[done:]
	for i := range dst {
		x := a[i] * c
		r := x - mulHi(x, bhi)*q
		if r >= q {
			r -= q
		}
		if r >= q {
			r -= q
		}
		dst[i] = r
	}
}

// VecTensorInto computes one residue row of the degree-2 ciphertext tensor
// in a single fused walk — t0 = a0⊙b0, t1 = a0⊙b1 + a1⊙b0, t2 = a1⊙b1 —
// reading the four operand rows once instead of the four separate passes of
// the unfused MulInto/MulAddInto sequence. Values are bit-identical to that
// sequence: every lane is fully reduced, so the grouping cannot change the
// result.
func (m Modulus) VecTensorInto(t0, t1, t2, a0, a1, b0, b1 []uint64) {
	q, bhi := m.Q, m.barrettHi
	n := len(t0)
	t1 = t1[:n]
	t2 = t2[:n]
	a0 = a0[:n]
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	if q < 1<<31 {
		done := m.simd(opTensor, nil, t0, t1, t2, a0, a1, b0, b1)
		t0, t1, t2 = t0[done:], t1[done:], t2[done:]
		a0, a1, b0, b1 = a0[done:], a1[done:], b0[done:], b1[done:]
		// Word-sized primes (the RNS configuration): the middle term is a raw
		// sum — both products are < 2^62, so x0·y1 + x1·y0 < 2^63 stays inside
		// the Barrett input range (see VecReduceInto) and one reduction
		// replaces two. The canonical result is the same Σ mod q either way.
		for i := range t0 {
			x0, x1, y0, y1 := a0[i], a1[i], b0[i], b1[i]

			p := x0 * y0
			r := p - mulHi(p, bhi)*q
			if r >= q {
				r -= q
			}
			if r >= q {
				r -= q
			}
			t0[i] = r

			p = x0*y1 + x1*y0
			s := p - mulHi(p, bhi)*q
			if s >= q {
				s -= q
			}
			if s >= q {
				s -= q
			}
			t1[i] = s

			p = x1 * y1
			r = p - mulHi(p, bhi)*q
			if r >= q {
				r -= q
			}
			if r >= q {
				r -= q
			}
			t2[i] = r
		}
		return
	}
	m.VecMulInto(t0, a0, b0)
	m.VecMulInto(t1, a0, b1)
	m.VecMulAddInto(t1, a1, b0)
	m.VecMulInto(t2, a1, b1)
}

// VecMulRawInto sets dst[i] = a[i]·b[i] with no reduction — the opening term
// of a lazily accumulated sum of products. The caller is responsible for the
// headroom bookkeeping (see VecMulAddRawInto).
func (m Modulus) VecMulRawInto(dst, a, b []uint64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	done := m.simd(opMulRaw, nil, dst, a, b)
	dst, a, b = dst[done:], a[done:], b[done:]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// VecMulAddRawInto sets dst[i] += a[i]·b[i] with no reduction: the raw MAC of
// a lazily accumulated sum of products, one machine multiply per lane. The
// caller must bound the accumulated sum below 2^63 — k terms of w-bit
// operands need k·2^(2w) ≤ 2^63 — and finish with one VecReduceInto pass; the
// canonical result equals the eagerly reduced sum.
func (m Modulus) VecMulAddRawInto(dst, a, b []uint64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	done := m.simd(opMulAddRaw, nil, dst, a, b)
	dst, a, b = dst[done:], a[done:], b[done:]
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// VecReduceOnceInto sets dst[i] = a[i] mod Q for inputs already below 2·Q —
// a single conditional subtraction per lane, the cheap half of the RNS digit
// replication when every digit value is within one subtraction of canonical.
func (m Modulus) VecReduceOnceInto(dst, a []uint64) {
	q := m.Q
	a = a[:len(dst)]
	done := m.simd(opReduceOnce, nil, dst, a)
	dst, a = dst[done:], a[done:]
	for i := range dst {
		x := a[i]
		if x >= q {
			x -= q
		}
		dst[i] = x
	}
}

// VecScalarMulShoupInto sets dst[i] = w·a[i] mod Q for a fixed reduced
// operand w with wShoup = ShoupPrecomp(w) — the constant-operand lane the
// RNS digit decomposition multiplies q̃_i through, two machine multiplies
// per coefficient.
//
// The four Shoup kernels take multiplicands a[i] (and b[i]) below 2^32. The
// vector lane estimates its quotient from 32 bits of the Shoup companion where
// the scalar lane uses 64, so a *lazy* product may come out q above the scalar
// one (both congruent and < 2·Q); canonical outputs — this kernel, and every
// lazy sum after its closing VecReduceInto or VecExtendFinishInto — are the
// same words on either path.
func (m Modulus) VecScalarMulShoupInto(dst, a []uint64, w, wShoup uint64) {
	q := m.Q
	a = a[:len(dst)]
	done := m.simd(opShoup, []uint64{w, wShoup}, dst, a)
	dst, a = dst[done:], a[done:]
	for i := range dst {
		x := a[i]
		qhat, _ := bits.Mul64(x, wShoup)
		r := x*w - qhat*q
		if r >= q {
			r -= q
		}
		dst[i] = r
	}
}

// VecScalarMulShoupLazyInto sets dst[i] = w·a[i] mod Q *lazily* (< 2·Q, no
// conditional subtraction) for a fixed reduced operand w with
// wShoup = ShoupPrecomp(w) — the opening term of a lazily accumulated
// constant-operand sum of products.
func (m Modulus) VecScalarMulShoupLazyInto(dst, a []uint64, w, wShoup uint64) {
	q := m.Q
	a = a[:len(dst)]
	done := m.simd(opShoupLazy, []uint64{w, wShoup}, dst, a)
	dst, a = dst[done:], a[done:]
	for i := range dst {
		x := a[i]
		qhat, _ := bits.Mul64(x, wShoup)
		dst[i] = x*w - qhat*q
	}
}

// VecScalarMulShoupLazyAddInto sets dst[i] += w·a[i] mod Q lazily (each
// product < 2·Q, no reduction of the running sum) — the accumulation lane of
// the HPS base-extension and scale sums. The caller bounds the total (k lazy
// terms of w-bit primes need k·2^(w+1) within the closing reduction's range)
// and finishes with VecReduceInto.
func (m Modulus) VecScalarMulShoupLazyAddInto(dst, a []uint64, w, wShoup uint64) {
	q := m.Q
	a = a[:len(dst)]
	done := m.simd(opShoupLazyAdd, []uint64{w, wShoup}, dst, a)
	dst, a = dst[done:], a[done:]
	for i := range dst {
		x := a[i]
		qhat, _ := bits.Mul64(x, wShoup)
		dst[i] += x*w - qhat*q
	}
}

// VecScalarMulShoupLazyAdd2Into sets dst[i] += wa·a[i] + wb·b[i] mod Q lazily
// (two Shoup products per lane, neither reduced) — two accumulation rows of
// VecScalarMulShoupLazyAddInto in one pass over dst. The uint64 sum is
// word-for-word the one the two separate passes produce (wrapping addition is
// associative), so lazily accumulated results remain bit-identical.
func (m Modulus) VecScalarMulShoupLazyAdd2Into(dst, a, b []uint64, wa, waShoup, wb, wbShoup uint64) {
	q := m.Q
	a = a[:len(dst)]
	b = b[:len(dst)]
	done := m.simd(opShoupLazyAdd2, []uint64{wa, waShoup, wb, wbShoup}, dst, a, b)
	dst, a, b = dst[done:], a[done:], b[done:]
	for i := range dst {
		x := a[i]
		qhatA, _ := bits.Mul64(x, waShoup)
		pa := x*wa - qhatA*q
		y := b[i]
		qhatB, _ := bits.Mul64(y, wbShoup)
		dst[i] += pa + y*wb - qhatB*q
	}
}

// VecExtendFinishInto is the closing pass of the HPS base extension over one
// target row: dst holds the raw sum of lazy Shoup products Σ y_i·(q*_i mod Q)
// (< 2^63) and v the rounded CRT quotients (< 2^32; at most the source basis
// size); each lane becomes (dst[i] mod Q) - v[i]·w mod Q with w = q mod Q held
// constant — Sub(Reduce(sum), MulShoup(v, w)) per lane.
func (m Modulus) VecExtendFinishInto(dst, v []uint64, w, wShoup uint64) {
	q, bhi := m.Q, m.barrettHi
	v = v[:len(dst)]
	done := m.simd(opExtendFinish, []uint64{w, wShoup}, dst, v)
	dst, v = dst[done:], v[done:]
	for i := range dst {
		x := dst[i]
		r := x - mulHi(x, bhi)*q
		if r >= q {
			r -= q
		}
		if r >= q {
			r -= q
		}
		xv := v[i]
		qhat, _ := bits.Mul64(xv, wShoup)
		vq := xv*w - qhat*q
		if vq >= q {
			vq -= q
		}
		d := r - vq
		if d > r { // borrow
			d += q
		}
		dst[i] = d
	}
}

// VecReduceInto sets dst[i] = a[i] mod Q for arbitrary inputs below 2^63 —
// the base-conversion lane of the RNS digit decomposition and the closing
// pass of a raw sum of products. The bound is barrettHi's (modulus.go): the
// remainder lands below 2·Q, so the conditional subtractions reach canonical.
func (m Modulus) VecReduceInto(dst, a []uint64) {
	q, bhi := m.Q, m.barrettHi
	a = a[:len(dst)]
	done := m.simd(opReduce, nil, dst, a)
	dst, a = dst[done:], a[done:]
	for i := range dst {
		x := a[i]
		r := x - mulHi(x, bhi)*q
		if r >= q {
			r -= q
		}
		if r >= q {
			r -= q
		}
		dst[i] = r
	}
}

// VecRescaleInto is one output row of the CKKS rescale by a top prime qt
// (rns.Rescaler): with x the row over Q, top the row over qt, halfQ = ⌊qt/2⌋
// mod Q and inv = qt⁻¹ mod Q (invShoup = ShoupPrecomp(inv)),
//
//	dst[i] = (x[i] + halfQ − ((top[i] + ⌊qt/2⌋) mod qt)) · inv  mod Q,
//
// the half-adjusted flooring division; top's lanes must be below qt.
func (m Modulus) VecRescaleInto(dst, x, top []uint64, qt Modulus, halfQ, inv, invShoup uint64) {
	x = x[:len(dst)]
	top = top[:len(dst)]
	done := m.simd(opRescale, []uint64{qt.Q, halfQ, inv, invShoup}, dst, x, top)
	dst, x, top = dst[done:], x[done:], top[done:]
	half := qt.Q >> 1
	for i := range dst {
		// r' = (x_t + half) mod q_t, then reduced into Q.
		rp := top[i] + half
		if rp >= qt.Q {
			rp -= qt.Q
		}
		v := m.Sub(m.Add(x[i], halfQ), m.Reduce(rp))
		dst[i] = m.MulShoup(v, inv, invShoup)
	}
}
