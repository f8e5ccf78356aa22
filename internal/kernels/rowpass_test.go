package kernels

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"atmatrix/internal/mat"
)

// runOracle is the sparse-target accumulation this package shipped before
// the row pass, kept as the reference the pass must reproduce bit for bit:
// every contribution appended one sorted, zero-free run per row (flush, the
// old FlushRow), rows whose runs interleave were re-scattered in stored
// order and emitted again (combineRows, the old CombineRows), and toCSR
// combined what was left and copied row by row (the old ToCSR).
type runOracle struct {
	cols int
	rows []oracleRow
}

type oracleRow struct {
	cols     []int32
	vals     []float64
	unsorted bool
}

// flush appends one contribution's run to row r.
func (o *runOracle) flush(r int, cols []int32, vals []float64) {
	if len(cols) == 0 {
		return
	}
	row := &o.rows[r]
	n0 := len(row.cols)
	row.cols = append(row.cols, cols...)
	row.vals = append(row.vals, vals...)
	if n0 > 0 && row.cols[n0] <= row.cols[n0-1] {
		row.unsorted = true
	}
}

func (o *runOracle) combineRows(lo, hi int, spa *SPA) {
	for r := lo; r < hi; r++ {
		row := &o.rows[r]
		if !row.unsorted {
			continue
		}
		spa.Reset(o.cols)
		for i, c := range row.cols {
			spa.Add(c, row.vals[i])
		}
		n := spa.EmitSorted(row.cols, row.vals)
		row.cols, row.vals, row.unsorted = row.cols[:n], row.vals[:n], false
	}
}

func (o *runOracle) toCSR() *mat.CSR {
	o.combineRows(0, len(o.rows), NewSPA(o.cols))
	out := mat.NewCSR(len(o.rows), o.cols)
	for r, row := range o.rows {
		out.RowPtr[r+1] = out.RowPtr[r] + int64(len(row.cols))
		out.ColIdx = append(out.ColIdx, row.cols...)
		out.Val = append(out.Val, row.vals...)
	}
	return out
}

// Term kinds of the bit test, in the order the kernels are declared.
const (
	kSpSpSp = iota
	kSpDSp
	kDSpSp
	kDDSp
	kOuter
	numKinds
)

// bitTerm is one random contribution: both operands in both forms, the
// kind saying which forms the term multiplies.
type bitTerm struct {
	kind   int
	as, bs CSRWin
	ad, bd *mat.Dense
}

// single computes the term alone into a fresh accumulator at offset
// (r0, 0) through its one-contribution kernel.
func (t bitTerm) single(acc *SpAcc, r0 int, a CSRWin, ad *mat.Dense) {
	switch t.kind {
	case kSpSpSp:
		SpSpSp(acc, r0, 0, a, t.bs, NewSPA(acc.Cols))
	case kSpDSp:
		SpDSp(acc, r0, 0, a, t.bd, NewSPA(acc.Cols))
	case kDSpSp:
		DSpSp(acc, r0, 0, ad, t.bs, NewSPA(acc.Cols))
	case kDDSp:
		DDSp(acc, r0, 0, ad, t.bd, NewSPA(acc.Cols))
	default:
		OuterSpSp(acc, r0, 0, a, t.bs, NewMergeScratch())
	}
}

// term is the bit test's contribution as the row pass takes it.
func (t bitTerm) term() Term {
	var out Term
	if t.kind == kSpSpSp || t.kind == kSpDSp || t.kind == kOuter {
		out.A = t.as
	} else {
		out.AD = *t.ad
	}
	if t.kind == kSpDSp || t.kind == kDDSp {
		out.BD = *t.bd
	} else {
		out.B = t.bs
	}
	out.Outer = t.kind == kOuter
	return out
}

// oracleCSR computes the sum of terms the old way: each term's runs come
// from its one-contribution kernel, and runOracle accumulates them in term
// order.
func oracleSum(m, n int, terms []bitTerm) *mat.CSR {
	o := &runOracle{cols: n, rows: make([]oracleRow, m)}
	for _, t := range terms {
		acc := NewSpAcc(m, n)
		t.single(acc, 0, t.as, t.ad)
		run := acc.ToCSR()
		for r := 0; r < m; r++ {
			lo, hi := run.RowPtr[r], run.RowPtr[r+1]
			o.flush(r, run.ColIdx[lo:hi], run.Val[lo:hi])
		}
	}
	return o.toCSR()
}

// passSum runs the terms through the row pass, one segment per chunk, the
// chunks alternating between two worker arenas.
func passSum(m, n int, terms []bitTerm, cuts [][2]int, scrs [2]*Scratch) *mat.CSR {
	ts := make([]Term, len(terms))
	for i, t := range terms {
		ts[i] = t.term()
	}
	acc := scrs[0].Acc(m, n)
	acc.Split(len(cuts))
	for i, c := range cuts {
		acc.Pass(i, c[0], c[1], ts, scrs[i%2])
	}
	return acc.ToCSR()
}

// bitValue draws an operand value: mostly reals (or small integers in exact
// mode), sometimes a stored ±0, NaN or ±Inf.
func bitValue(r *rand.Rand, exact, special bool) float64 {
	if special {
		switch r.Intn(30) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.NaN()
		case 3:
			return math.Inf(1)
		case 4:
			return math.Inf(-1)
		}
	}
	if exact {
		return float64(r.Intn(7) - 3)
	}
	return r.Float64()*4 - 2
}

// bitCSR draws a rows×cols CSR with strictly ascending columns per row.
func bitCSR(r *rand.Rand, rows, cols int, rho float64, val func() float64) *mat.CSR {
	out := mat.NewCSR(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < rho {
				out.ColIdx = append(out.ColIdx, int32(j))
				out.Val = append(out.Val, val())
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// bitScenario draws a target shape, a contribution list over all five
// kinds and a chunking of the target rows.
func bitScenario(r *rand.Rand) (m, n int, terms []bitTerm, cuts [][2]int) {
	m = 1 + r.Intn(12)
	n = []int{1, 5, 63, 64, 65, 130, 1 + r.Intn(200)}[r.Intn(7)]
	exact, special := r.Intn(3) == 0, r.Intn(2) == 0
	val := func() float64 { return bitValue(r, exact, special) }
	for c := r.Intn(7); c > 0; c-- {
		if len(terms) > 0 && r.Intn(4) == 0 {
			// The negation of an earlier term: exact cancellation.
			src := terms[r.Intn(len(terms))]
			neg := src
			a := *src.as.M
			a.Val = slices.Clone(a.Val)
			for i := range a.Val {
				a.Val[i] = -a.Val[i]
			}
			neg.as = FullCSR(&a)
			neg.ad = a.ToDense()
			neg.kind = r.Intn(numKinds)
			terms = append(terms, neg)
			continue
		}
		k := 1 + r.Intn(10)
		rho := []float64{0.05, 0.2, 0.6}[r.Intn(3)]
		a := bitCSR(r, m, k, rho, val)
		// B is sometimes a window of a wider matrix, so its columns are
		// rebased into the target.
		off := 0
		if r.Intn(3) == 0 {
			off = 1 + r.Intn(70)
		}
		b := bitCSR(r, k, off+n+r.Intn(3), rho, val)
		bd := b.ToDense().Window(0, k, off, off+n)
		terms = append(terms, bitTerm{
			kind: r.Intn(numKinds),
			as:   FullCSR(a), ad: a.ToDense(),
			bs: CSRWin{M: b, Col0: off, Rows: k, Cols: n}, bd: bd,
		})
	}
	return m, n, terms, chunks(r, m)
}

// sameCSRBits is sameBits for CSR matrices: the same pattern and the same
// value bits, NaN payloads aside.
func sameCSRBits(a, b *mat.CSR) bool {
	if !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) {
		return false
	}
	for i, v := range a.Val {
		w := b.Val[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// TestPropertySparseRowPassBits: the row pass produces exactly the bits of
// the old run-per-contribution accumulation, for random contribution lists
// over all five sparse-target kinds, random chunkings of the rows, stored
// ±0, NaN, ±Inf and exact cancellation.
func TestPropertySparseRowPassBits(t *testing.T) {
	scrs := [2]*Scratch{NewScratch(), NewScratch()}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, terms, cuts := bitScenario(r)
		want := oracleSum(m, n, terms)
		got := passSum(m, n, terms, cuts, scrs)
		if err := got.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !sameCSRBits(got, want) {
			t.Logf("seed %d: %d×%d, %d terms, chunks %v: row pass differs from the run oracle", seed, m, n, len(terms), cuts)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(321))}); err != nil {
		t.Error(err)
	}
}
