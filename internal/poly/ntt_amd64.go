//go:build amd64 && !purego

package poly

import "repro/internal/ring"

// The AVX2 rendition of the butterflies (ntt_amd64.s): every level of both
// transforms on four 64-bit lanes, the lazy values confined to the low dword
// of each. The scalar code in ntt.go is the reference and the path taken
// whenever simd() says no; the two agree word for word on every output,
// because each transform ends in a canonical reduction — a lazy intermediate
// may sit q apart (the vector lane estimates its quotient from 32 bits of the
// Shoup companion, the scalar lane from 64), which the reduction cannot see.

//go:noescape
func fwdLevelAVX2(dst, src *uint64, groups, span int, w, ws *uint64, q uint64)

//go:noescape
func fwdTailAVX2(a *uint64, n int, tw2, tw2S, tw1, tw1S *uint64, q uint64)

//go:noescape
func invHeadAVX2(a *uint64, n int, tw1, tw1S, tw2, tw2S *uint64, q uint64)

//go:noescape
func invLevelAVX2(a *uint64, groups, span int, w, ws *uint64, q uint64)

//go:noescape
func invLastAVX2(a *uint64, half int, nInv, nInv32, wN, wN32, q uint64)

// simd is the whole dispatch rule, from what the code can observe: the CPU
// runs AVX2, the lazy < 4q range fits a 32-bit lane, and the transform is long
// enough for one iteration of the fused 8-coefficient kernels.
func (t *NTTTable) simd() bool {
	return ring.HasAVX2() && t.Mod.Q < 1<<30 && t.N >= 8
}

// forwardSIMD is Forward (dst == src) and ForwardFromInto on the vector
// unit; it reports false, having done nothing, when simd() rules it out.
func (t *NTTTable) forwardSIMD(dst, src []uint64) bool {
	if !t.simd() {
		return false
	}
	n, q := t.N, t.Mod.Q
	d, s := &dst[0], &src[0]
	for stage, span := 1, n>>1; span >= 4; stage, span = stage<<1, span>>1 {
		fwdLevelAVX2(d, s, stage, span, &t.psiRev[stage], &t.psiRevShoup[stage], q)
		s = d
	}
	fwdTailAVX2(d, n, &t.psiRev[n>>2], &t.psiRevShoup[n>>2], &t.psiRev[n>>1], &t.psiRevShoup[n>>1], q)
	return true
}

// inverseSIMD is Inverse on the vector unit, under the same rule.
func (t *NTTTable) inverseSIMD(a []uint64) bool {
	if !t.simd() {
		return false
	}
	n, q := t.N, t.Mod.Q
	p := &a[0]
	invHeadAVX2(p, n, &t.psiInvRev[n>>1], &t.psiInvRevShoup[n>>1], &t.psiInvRev[n>>2], &t.psiInvRevShoup[n>>2], q)
	for stage, span := n>>3, 4; stage >= 2; stage, span = stage>>1, span<<1 {
		invLevelAVX2(p, stage, span, &t.psiInvRev[stage], &t.psiInvRevShoup[stage], q)
	}
	invLastAVX2(p, n>>1, t.NInv, t.nInvShoup>>32, t.psiInvN, t.psiInvNShoup>>32, q)
	return true
}
