package poly

import (
	"fmt"

	"repro/internal/ring"
)

// RNSPoly is a polynomial of degree bound n whose coefficients live in a
// residue number system: one residue polynomial per prime of the basis. This
// is the unit of data the paper's co-processor operates on — each RPAU owns
// the residue polynomials of one or two primes (Sec. V-A1).
type RNSPoly struct {
	Rows []Poly // Rows[i] holds the coefficients modulo basis prime i
}

// NewRNSPoly returns a zero RNS polynomial over the given moduli.
func NewRNSPoly(mods []ring.Modulus, n int) RNSPoly {
	rows := make([]Poly, len(mods))
	for i, m := range mods {
		rows[i] = NewPoly(m, n)
	}
	return RNSPoly{Rows: rows}
}

// Clone returns a deep copy.
func (p RNSPoly) Clone() RNSPoly {
	rows := make([]Poly, len(p.Rows))
	for i := range p.Rows {
		rows[i] = p.Rows[i].Clone()
	}
	return RNSPoly{Rows: rows}
}

// N returns the coefficient count (0 for an empty polynomial).
func (p RNSPoly) N() int {
	if len(p.Rows) == 0 {
		return 0
	}
	return p.Rows[0].N()
}

// Level returns the number of residue rows.
func (p RNSPoly) Level() int { return len(p.Rows) }

// Prefix returns the view of p made of its first k rows, followed by the
// rows named in extra (a key-switch row set is a chain prefix plus the
// special prime's row). The view shares p's coefficient storage: per-prime
// rows are independent, so a row subset of an NTT-domain polynomial is
// exactly the transform of the restricted polynomial.
func (p RNSPoly) Prefix(k int, extra ...int) RNSPoly {
	if len(extra) == 0 {
		return RNSPoly{Rows: p.Rows[:k]}
	}
	rows := append(make([]Poly, 0, k+len(extra)), p.Rows[:k]...)
	for _, i := range extra {
		rows = append(rows, p.Rows[i])
	}
	return RNSPoly{Rows: rows}
}

// CopyInto copies p's coefficients into dst (same shape).
func (p RNSPoly) CopyInto(dst RNSPoly) {
	p.checkCompat(dst)
	for i := range p.Rows {
		copy(dst.Rows[i].Coeffs, p.Rows[i].Coeffs)
	}
}

func (p RNSPoly) checkCompat(o RNSPoly) {
	if len(p.Rows) != len(o.Rows) {
		panic(fmt.Sprintf("poly: RNS level mismatch (%d vs %d)", len(p.Rows), len(o.Rows)))
	}
}

// AddInto sets dst = p + o.
func (p RNSPoly) AddInto(o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	for i := range p.Rows {
		p.Rows[i].AddInto(o.Rows[i], dst.Rows[i])
	}
}

// SubInto sets dst = p - o.
func (p RNSPoly) SubInto(o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	for i := range p.Rows {
		p.Rows[i].SubInto(o.Rows[i], dst.Rows[i])
	}
}

// MulInto sets dst = p ⊙ o coefficient-wise per residue row.
func (p RNSPoly) MulInto(o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	for i := range p.Rows {
		p.Rows[i].MulInto(o.Rows[i], dst.Rows[i])
	}
}

// MulAddInto sets dst += p ⊙ o.
func (p RNSPoly) MulAddInto(o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	for i := range p.Rows {
		p.Rows[i].MulAddInto(o.Rows[i], dst.Rows[i])
	}
}

// NegInto sets dst = -p.
func (p RNSPoly) NegInto(dst RNSPoly) {
	p.checkCompat(dst)
	for i := range p.Rows {
		p.Rows[i].NegInto(dst.Rows[i])
	}
}

// Equal reports deep equality.
func (p RNSPoly) Equal(o RNSPoly) bool {
	if len(p.Rows) != len(o.Rows) {
		return false
	}
	for i := range p.Rows {
		if !p.Rows[i].Equal(o.Rows[i]) {
			return false
		}
	}
	return true
}

// Transformer applies forward/inverse NTTs across all rows of RNS
// polynomials, holding one twiddle ROM per basis prime. When Pool is set the
// rows transform in parallel, one limb per pool task — exactly how the
// paper's RPAUs each run their own dual-butterfly NTT core on their residue
// polynomial (Sec. V-A); a nil Pool transforms sequentially.
type Transformer struct {
	Tables []*NTTTable
	Pool   *Pool
}

// NewTransformer builds NTT tables of degree n for each modulus.
func NewTransformer(mods []ring.Modulus, n int) (*Transformer, error) {
	tabs := make([]*NTTTable, len(mods))
	for i, m := range mods {
		t, err := NewNTTTable(m, n)
		if err != nil {
			return nil, err
		}
		tabs[i] = t
	}
	return &Transformer{Tables: tabs}, nil
}

// rowOpTask is the closure-free dispatch vehicle for per-row RNS operations:
// a func literal capturing the operand headers would escape to the heap on
// every Forward/Inverse/PoolOps call, which is exactly the steady-state
// garbage the zero-allocation hot path eliminates. Tasks are recycled
// through a package-level freelist (channel, not sync.Pool: a GC cycle must
// not reintroduce allocations).
type rowOpTask struct {
	op        uint8
	tables    []*NTTTable
	a, b, dst []Poly
	src       []Poly // rowOpFwdFrom: dst[i] ← NTT(src[i]) in one fused walk
}

const (
	rowOpFwd = uint8(iota)
	rowOpInv
	rowOpFwdFrom
	rowOpAdd
	rowOpSub
	rowOpMul
	rowOpMulAdd
	rowOpNeg
)

func (t *rowOpTask) RunIndex(i int) {
	switch t.op {
	case rowOpFwd:
		t.tables[i].Forward(t.dst[i].Coeffs)
	case rowOpInv:
		t.tables[i].Inverse(t.dst[i].Coeffs)
	case rowOpFwdFrom:
		t.tables[i].ForwardFromInto(t.dst[i].Coeffs, t.src[i].Coeffs)
	case rowOpAdd:
		t.a[i].AddInto(t.b[i], t.dst[i])
	case rowOpSub:
		t.a[i].SubInto(t.b[i], t.dst[i])
	case rowOpMul:
		t.a[i].MulInto(t.b[i], t.dst[i])
	case rowOpMulAdd:
		t.a[i].MulAddInto(t.b[i], t.dst[i])
	case rowOpNeg:
		t.a[i].NegInto(t.dst[i])
	}
}

var rowOpFree = make(chan *rowOpTask, 64)

func getRowOpTask() *rowOpTask {
	select {
	case t := <-rowOpFree:
		return t
	default:
		return new(rowOpTask)
	}
}

func putRowOpTask(t *rowOpTask) {
	*t = rowOpTask{}
	select {
	case rowOpFree <- t:
	default:
	}
}

// Forward NTT-transforms every row of p in place, fanning rows across the
// pool when one is configured.
func (tr *Transformer) Forward(p RNSPoly) {
	tr.check(p)
	t := getRowOpTask()
	t.op, t.tables, t.dst = rowOpFwd, tr.Tables, p.Rows
	tr.Pool.RunTask(p.N()*len(p.Rows), len(p.Rows), t)
	putRowOpTask(t)
}

// Inverse inverse-transforms every row of p in place, fanning rows across
// the pool when one is configured.
func (tr *Transformer) Inverse(p RNSPoly) {
	tr.check(p)
	t := getRowOpTask()
	t.op, t.tables, t.dst = rowOpInv, tr.Tables, p.Rows
	tr.Pool.RunTask(p.N()*len(p.Rows), len(p.Rows), t)
	putRowOpTask(t)
}

// ForwardFromInto NTT-transforms src into dst row by row in one fused walk
// per row (see NTTTable.ForwardFromInto), leaving src untouched. It is the
// allocation- and copy-free replacement for Clone + Forward.
func (tr *Transformer) ForwardFromInto(dst, src RNSPoly) {
	tr.check(dst)
	tr.check(src)
	t := getRowOpTask()
	t.op, t.tables, t.dst, t.src = rowOpFwdFrom, tr.Tables, dst.Rows, src.Rows
	tr.Pool.RunTask(dst.N()*len(dst.Rows), len(dst.Rows), t)
	putRowOpTask(t)
}

func (tr *Transformer) check(p RNSPoly) {
	if len(p.Rows) != len(tr.Tables) {
		panic(fmt.Sprintf("poly: transformer has %d tables, polynomial has %d rows",
			len(tr.Tables), len(p.Rows)))
	}
	for i := range p.Rows {
		if p.Rows[i].Mod.Q != tr.Tables[i].Mod.Q {
			panic("poly: transformer/polynomial modulus mismatch")
		}
	}
}

// SubTransformer returns a transformer over the first k tables (sharing the
// pool), for operating on polynomials at a lower level.
func (tr *Transformer) SubTransformer(k int) *Transformer {
	return &Transformer{Tables: tr.Tables[:k], Pool: tr.Pool}
}

// PoolOps applies the coefficient-wise RNSPoly operations with their row
// loops fanned across a pool — the software counterpart of the paper's
// coefficient-wise add/sub/multiply datapaths running on all RPAUs at once.
// A zero or nil-pool PoolOps degrades to the sequential methods bit-for-bit.
type PoolOps struct {
	Pool *Pool
}

func (po PoolOps) run(op uint8, a, b, dst RNSPoly) {
	t := getRowOpTask()
	t.op, t.a, t.b, t.dst = op, a.Rows, b.Rows, dst.Rows
	po.Pool.RunTask(a.N()*len(a.Rows), len(a.Rows), t)
	putRowOpTask(t)
}

// AddInto sets dst = p + o.
func (po PoolOps) AddInto(p, o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	po.run(rowOpAdd, p, o, dst)
}

// SubInto sets dst = p - o.
func (po PoolOps) SubInto(p, o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	po.run(rowOpSub, p, o, dst)
}

// MulInto sets dst = p ⊙ o coefficient-wise per residue row.
func (po PoolOps) MulInto(p, o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	po.run(rowOpMul, p, o, dst)
}

// MulAddInto sets dst += p ⊙ o.
func (po PoolOps) MulAddInto(p, o, dst RNSPoly) {
	p.checkCompat(o)
	p.checkCompat(dst)
	po.run(rowOpMulAdd, p, o, dst)
}

// NegInto sets dst = -p.
func (po PoolOps) NegInto(p, dst RNSPoly) {
	p.checkCompat(dst)
	po.run(rowOpNeg, p, RNSPoly{}, dst)
}
