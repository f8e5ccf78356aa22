package kernels

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"atmatrix/internal/mat"
)

// TestPropertyOuterSpSpMatchesGustavson cross-checks the outer-product
// merge kernel against SpSpSp on randomized tiles: same algebra, and the
// rows must additionally be strictly sorted and duplicate-free as merged
// (ToCSR copies them as they are).
func TestPropertyOuterSpSpMatchesGustavson(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(24)
		k := 1 + r.Intn(24)
		n := 1 + r.Intn(24)
		// Bias toward the hypersparse end, but cover denser tiles too —
		// including nnz 0 (all rows empty) and near-full operands.
		ac := mat.RandomCOO(r, m, k, r.Intn(m*k+1))
		bc := mat.RandomCOO(r, k, n, r.Intn(k*n+1))
		as, bs := ac.ToCSR(), bc.ToCSR()
		spa := NewSPA(n)

		want := NewSpAcc(m, n)
		SpSpSp(want, 0, 0, FullCSR(as), FullCSR(bs), spa)

		got := NewSpAcc(m, n)
		OuterSpSp(got, 0, 0, FullCSR(as), FullCSR(bs), NewMergeScratch())

		// Validate requires every row strictly ascending (sorted, no dups).
		gc, wc := got.ToCSR(), want.ToCSR()
		if err := gc.Validate(); err != nil || wc.Validate() != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return gc.ToDense().EqualApprox(wc.ToDense(), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestPropertyOuterSpSpWindowed exercises the target offset paths and
// windowed (column-restricted) operand views, summing two merge
// contributions in one row pass into an oversized target — exactly how
// ATMULT's k-loop drives the kernel.
func TestPropertyOuterSpSpWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 4 + r.Intn(20)
		inner := 4 + r.Intn(20)
		cols := 4 + r.Intn(20)
		a := mat.RandomCOO(r, rows, inner, r.Intn(rows*inner+1)).ToCSR()
		b := mat.RandomCOO(r, inner, cols, r.Intn(inner*cols+1)).ToCSR()

		// Split the contraction range: two windowed contributions that must
		// sum to the full product.
		kSplit := 1 + r.Intn(inner-1)
		aw1 := CSRWin{M: a, Row0: 0, Col0: 0, Rows: rows, Cols: kSplit}
		aw2 := CSRWin{M: a, Row0: 0, Col0: kSplit, Rows: rows, Cols: inner - kSplit}
		bw1 := CSRWin{M: b, Row0: 0, Col0: 0, Rows: kSplit, Cols: cols}
		bw2 := CSRWin{M: b, Row0: kSplit, Col0: 0, Rows: inner - kSplit, Cols: cols}
		if r.Intn(2) == 0 {
			aw1.BuildIndex()
			aw2.BuildIndex()
		}

		// Embed the result in a larger target at a random offset.
		cRow0, cCol0 := r.Intn(4), r.Intn(4)
		got := NewSpAcc(cRow0+rows, cCol0+cols)
		passAt(got, cRow0, cCol0, rows, []Term{{A: aw1, B: bw1, Outer: true}, {A: aw2, B: bw2, Outer: true}}, NewScratch())

		want := mat.MulReference(a.ToDense(), b.ToDense())
		gc := got.ToCSR()
		gd := gc.ToDense()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				d := gd.At(cRow0+i, cCol0+j) - want.At(i, j)
				if d < -1e-10 || d > 1e-10 {
					return false
				}
			}
		}
		// Offset margin must stay empty.
		return gc.RowPtr[cRow0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// passAt is Pass at a tile offset: window rows [0, rows) of the terms land
// at target row r0 and their columns at target column c0, in a new segment.
func passAt(acc *SpAcc, r0, c0, rows int, terms []Term, scr *Scratch) {
	ts := make([]termRows, len(terms))
	for i := range terms {
		t := &terms[i]
		ts[i] = newTermRows(t.A, t.B, &t.AD, &t.BD, t.Outer, c0)
	}
	n := len(acc.segs)
	acc.Split(n + 1)
	acc.pass(&acc.segs[n], r0, 0, rows, &rowPass{total: &scr.spa, part: &scr.part, ms: &scr.merge, terms: ts})
}

// TestOuterSpSpScratchReuse runs the kernel repeatedly through one worker
// Scratch (as the scheduler does) and checks that results stay correct
// when the merge arena is reused across tiles of different shapes.
func TestOuterSpSpScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	scr := NewScratch()
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := mat.RandomCOO(rng, m, k, rng.Intn(m*k+1)).ToCSR()
		b := mat.RandomCOO(rng, k, n, rng.Intn(k*n+1)).ToCSR()
		scr.BeginTask()
		acc := scr.Acc(m, n)
		OuterSpSp(acc, 0, 0, FullCSR(a), FullCSR(b), scr.Merge())
		want := mat.MulReference(a.ToDense(), b.ToDense())
		if !acc.ToCSR().ToDense().EqualApprox(want, 1e-10) {
			t.Fatalf("trial %d: scratch-reuse mismatch (m=%d k=%d n=%d)", trial, m, k, n)
		}
	}
	if scr.Bytes() <= 0 {
		t.Fatal("scratch footprint should account for the merge arena")
	}
}

// FuzzOuterMerge fuzzes the merge stage directly: the input bytes encode a
// small sparse A tile (each byte pair = one stored element), B is derived
// deterministically, and the outer-product result must match Gustavson.
// The seed corpus pins the shapes that exercise distinct merge paths:
// no runs, one run, duplicate-heavy runs, and maximal fan-in.
func FuzzOuterMerge(f *testing.F) {
	f.Add([]byte{})                                     // empty A: no runs at all
	f.Add([]byte{0, 0})                                 // single element: 1-run fast path
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3})               // one row, 4 runs: full tree
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0})               // one run per row
	f.Add([]byte{0, 0, 0, 0, 0, 0})                     // duplicate A elements → duplicate runs
	f.Add([]byte{0xff, 0xff, 0, 0, 0x7f, 0x3c, 9, 200}) // scattered corners
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, data []byte) {
		const dim = 16
		// Decode A from byte pairs; values from the element index so sums
		// over duplicates stay exact in float64.
		ab := mat.NewCOO(dim, dim)
		for p := 0; p+1 < len(data); p += 2 {
			ab.Append(int(data[p])%dim, int(data[p+1])%dim, float64(p%7)+1)
		}
		a := ab.ToCSR()
		// Deterministic mid-density B so merges see both hits and misses.
		bb := mat.NewCOO(dim, dim)
		for i := 0; i < dim; i++ {
			for j := i % 3; j < dim; j += 3 {
				bb.Append(i, j, float64(i*dim+j+1))
			}
		}
		b := bb.ToCSR()

		got := NewSpAcc(dim, dim)
		OuterSpSp(got, 0, 0, FullCSR(a), FullCSR(b), NewMergeScratch())
		want := NewSpAcc(dim, dim)
		SpSpSp(want, 0, 0, FullCSR(a), FullCSR(b), NewSPA(dim))
		if !got.ToCSR().ToDense().EqualApprox(want.ToCSR().ToDense(), 1e-9) {
			t.Fatalf("outer-product result diverges from Gustavson for %x", data)
		}
	})
}
