package kernels

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"atmatrix/internal/mat"
)

// The contraction-major walks must give the row walks' bits: every output
// element receives the same products in the same (ascending k) order. The
// row walks are the oracles — dspdRows for DSpD, SpSpD for SpSpDCols.

// oddValue draws a value that is, one time in three, a stored zero (±0),
// a NaN or an infinity, so bit equality is checked where IEEE rounding and
// propagation are least forgiving.
func oddValue(r *rand.Rand) float64 {
	switch r.Intn(18) {
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
	case 5:
		return 1
	}
	return r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
}

// oddCSR is a random rows×cols CSR whose stored values come from oddValue:
// it keeps stored zeros.
func oddCSR(r *rand.Rand, rows, cols int) *mat.CSR {
	m := mat.RandomCOO(r, rows, cols, r.Intn(rows*cols/2+2)).ToCSR()
	for p := range m.Val {
		m.Val[p] = oddValue(r)
	}
	return m
}

// oddDense is a random rows×cols dense matrix, fill% non-zero, embedded at
// an offset in a larger one so that its stride exceeds its width.
func oddDense(r *rand.Rand, rows, cols, fill int) mat.Dense {
	pad := r.Intn(3)
	big := mat.NewDense(rows+pad, cols+pad)
	for i := range big.Data {
		if r.Intn(100) < fill {
			big.Data[i] = oddValue(r)
		}
	}
	return big.View(pad, pad+rows, pad, pad+cols)
}

// oddWindow returns a k×n window of a random sparse matrix at a random
// offset, pre-indexed half of the time as ATMULT's B windows are.
func oddWindow(r *rand.Rand, k, n int) CSRWin {
	rows, cols := k+r.Intn(4), n+r.Intn(8)
	w := CSRWin{M: oddCSR(r, rows, cols), Row0: r.Intn(rows - k + 1), Col0: r.Intn(cols - n + 1), Rows: k, Cols: n}
	if r.Intn(2) == 0 {
		w.BuildIndex()
	}
	return w
}

// sameBits reports whether two dense matrices hold bit-identical values,
// NaN payloads aside: when two NaNs meet in a sum, x86 returns the one in
// the destination register, and which operand that is the compiler picks
// per loop body.
func sameBits(a, b *mat.Dense) bool {
	for i := 0; i < a.Rows; i++ {
		x, y := a.RowSlice(i), b.RowSlice(i)
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) && !(math.IsNaN(x[j]) && math.IsNaN(y[j])) {
				return false
			}
		}
	}
	return true
}

// chunks cuts [0, rows) into a random number of consecutive fan-out chunks.
func chunks(r *rand.Rand, rows int) [][2]int {
	var out [][2]int
	for lo := 0; lo < rows; {
		hi := min(rows, lo+1+r.Intn(rows))
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

func TestPropertyDSpDContractionMajorBits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Heights on both sides of the contraction-major cut.
		m := 1 + r.Intn(2*contractionMajorRows+20)
		k, n := 1+r.Intn(40), 1+r.Intn(40)
		a := oddDense(r, m, k, 20+r.Intn(81))
		if r.Intn(2) == 0 {
			// Columns of 0–9 non-zero scalars among ±0, so that dspdCols'
			// four-row groups end at every offset.
			for j := 0; j < k; j++ {
				for i := 0; i < m; i++ {
					a.Set(i, j, math.Copysign(0, float64(r.Intn(2))-0.5))
				}
				for _, i := range r.Perm(m)[:min(m, r.Intn(10))] {
					x := oddValue(r)
					for x == 0 {
						x = oddValue(r)
					}
					a.Set(i, j, x)
				}
			}
		}
		b := oddWindow(r, k, n)
		c0 := oddDense(r, m, n, 50)
		want, cols, whole := c0.Clone(), c0.Clone(), c0.Clone()
		dspdRows(want, &a, b)
		dspdCols(cols, &a, b)
		DSpD(whole, &a, b)
		// The fan-out: each chunk of target rows runs DSpD on its own rows.
		chunked := c0.Clone()
		for _, ch := range chunks(r, m) {
			cv, av := chunked.View(ch[0], ch[1], 0, n), a.View(ch[0], ch[1], 0, k)
			DSpD(&cv, &av, b)
		}
		return sameBits(cols, want) && sameBits(whole, want) && sameBits(chunked, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDSpDTallWindowBits: on windows taller than the cut, the dot
// walk gives the row walk's bits, and so does DSpDScratch whichever walk it
// picks, on one arena reused across cases and fan-out chunks. A is a
// contraction sub-range of a wider tile; ±0, NaN and ±Inf are among the
// values of A and B, and some target cells start at −0, whole columns of
// them too.
func TestPropertyDSpDTallWindowBits(t *testing.T) {
	scr := NewScratch()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := contractionMajorRows + 1 + r.Intn(1024-contractionMajorRows)
		k, n := 1+r.Intn(40), 1+r.Intn(40)
		kc0 := r.Intn(8)
		tile := oddDense(r, m, kc0+k+r.Intn(8), 5+r.Intn(96))
		a := tile.View(0, m, kc0, kc0+k)
		b := oddWindow(r, k, n)
		c0 := oddDense(r, m, n, 50)
		for j := 0; j < n; j++ {
			whole := r.Intn(8) == 0
			for i := 0; i < m; i++ {
				if whole || r.Intn(16) == 0 {
					c0.Set(i, j, math.Copysign(0, -1))
				}
			}
		}
		want, dots, picked := c0.Clone(), c0.Clone(), c0.Clone()
		dspdRows(want, &a, b)
		dspdDots(dots, &a, b, scr.bColumns(b))
		DSpDScratch(picked, &a, b, scr)
		chunked := c0.Clone()
		for _, ch := range chunks(r, m) {
			cv, av := chunked.View(ch[0], ch[1], 0, n), a.View(ch[0], ch[1], 0, k)
			DSpDScratch(&cv, &av, b, scr)
		}
		return sameBits(dots, want) && sameBits(picked, want) && sameBits(chunked, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(64))}); err != nil {
		t.Error(err)
	}
}

func TestPropertySpSpDColsBits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(300), 1+r.Intn(60)
		a := oddCSR(r, rows, cols)
		if r.Intn(2) == 0 {
			// Columns of exactly 1–9 stored rows, so that SpSpDCols'
			// four-row groups end at every offset.
			coo := mat.NewCOO(rows, cols)
			for j := 0; j < cols; j++ {
				for _, i := range r.Perm(rows)[:min(rows, 1+r.Intn(9))] {
					coo.Append(i, j, 1)
				}
			}
			a = coo.ToCSR()
			for p := range a.Val {
				a.Val[p] = oddValue(r)
			}
		}
		// One row band of the tile, held by column.
		r0 := r.Intn(rows)
		r1 := r0 + 1 + r.Intn(rows-r0)
		v := NewColView(a, r0, r1)
		if !validView(v, a, r0, r1) {
			return false
		}
		// A contribution's contraction range, and a B window to match.
		kc0 := r.Intn(cols)
		k := 1 + r.Intn(cols-kc0)
		n := 1 + r.Intn(40)
		b := oddWindow(r, k, n)
		c0 := oddDense(r, r1-r0, n, 50)
		want, got := c0.Clone(), c0.Clone()
		SpSpD(want, CSRWin{M: a, Row0: r0, Col0: kc0, Rows: r1 - r0, Cols: k}, b)
		byChunk := chunks(r, r1-r0)
		if len(v.Row) > 0 && r.Intn(2) == 0 {
			// Chunks that end just after a stored row, so that a group
			// whose fourth row is the last below hi is cut there.
			byChunk = byChunk[:0]
			for lo := 0; lo < r1-r0; {
				hi := min(r1-r0, max(lo+1, int(v.Row[r.Intn(len(v.Row))])+1))
				byChunk = append(byChunk, [2]int{lo, hi})
				lo = hi
			}
		}
		for _, ch := range byChunk {
			cv := got.View(ch[0], ch[1], 0, n)
			SpSpDCols(&cv, v, ch[0], kc0, b)
		}
		return sameBits(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(62))}); err != nil {
		t.Error(err)
	}
}

// validView checks a view against the band it was built from: only
// non-empty columns, ascending; rows ascending within each; every stored
// entry of the band (stored zeros too) exactly once — so O(nnz) storage.
func validView(v *ColView, a *mat.CSR, r0, r1 int) bool {
	nnz := a.RowPtr[r1] - a.RowPtr[r0]
	if v.Rows != r1-r0 || int64(len(v.Row)) != nnz || int64(len(v.Val)) != nnz ||
		len(v.Ptr) != len(v.Col)+1 || v.Ptr[0] != 0 || v.Ptr[len(v.Col)] != nnz {
		return false
	}
	for p, c := range v.Col {
		if v.Ptr[p+1] <= v.Ptr[p] || (p > 0 && c <= v.Col[p-1]) {
			return false
		}
		for q := v.Ptr[p]; q < v.Ptr[p+1]; q++ {
			if q > v.Ptr[p] && v.Row[q] <= v.Row[q-1] {
				return false
			}
			cols, vals := a.Row(r0 + int(v.Row[q]))
			found := false
			for i, ac := range cols {
				found = found || (ac == c && math.Float64bits(vals[i]) == math.Float64bits(v.Val[q]))
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// BenchmarkDSpDHeight is the sweep behind contractionMajorRows: DSpD's
// three walks on windows 32 to 1024 rows tall, in two shapes. window is
// what ATMULT forms on R1–R3: a dense A tile 1024 wide at 50 % fill times
// a 64-column window of a sparse 1024² B tile, pre-indexed, about 1.5
// entries per window row. tile is ingest_store's mult_read, TP·B0: A 696
// wide at 92 % fill times a whole 696² B tile with 32 entries per row.
// dots includes building B's column form in a reused arena, as DSpD pays
// it on every call.
func BenchmarkDSpDHeight(b *testing.B) {
	r := rand.New(rand.NewSource(63))
	scr := NewScratch()
	dots := func(c, a *mat.Dense, b CSRWin) { dspdDots(c, a, b, scr.bColumns(b)) }
	for _, s := range []struct {
		name              string
		k, bCols, n, perK int
		fill              int
	}{{"window", 1024, 1024, 64, 24, 50}, {"tile", 696, 696, 696, 32, 92}} {
		bw := CSRWin{M: mat.RandomCOO(r, s.k, s.bCols, s.k*s.perK).ToCSR(), Col0: s.bCols - s.n, Rows: s.k, Cols: s.n}
		bw.BuildIndex()
		for _, h := range []int{32, 64, 128, 256, 512, 1024} {
			a := mat.NewDense(h, s.k)
			for i := range a.Data {
				if r.Intn(100) < s.fill {
					a.Data[i] = r.Float64()
				}
			}
			c := mat.NewDense(h, s.n)
			for _, walk := range []struct {
				name string
				run  func(c, a *mat.Dense, b CSRWin)
			}{{"rows", dspdRows}, {"cols", dspdCols}, {"dots", dots}} {
				b.Run(s.name+"/"+walk.name+"/"+strconv.Itoa(h), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						walk.run(c, a, bw)
					}
				})
			}
		}
	}
}

// BenchmarkContractionMajorShapes times the two contraction-major walks at
// the two ends of the column-segment range, on a 64-row band times a
// 1024×64 B. band is R2-like: every column holds 16–24 of the 64 target
// rows and every B row 16–24 entries, so nearly every multiply-add goes
// through scatterRows4. thin is R3-like: 1–3 rows per column and 1–2
// entries per B row, so the single-row path left for leftovers does the
// work.
func BenchmarkContractionMajorShapes(b *testing.B) {
	r := rand.New(rand.NewSource(66))
	const rows, k, n = 64, 1024, 64
	draw := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
	for _, s := range []struct {
		name                   string
		colLo, colHi, bLo, bHi int
	}{{"band", 16, 24, 16, 24}, {"thin", 1, 3, 1, 2}} {
		ac, bc := mat.NewCOO(rows, k), mat.NewCOO(k, n)
		d := mat.NewDense(rows, k)
		for j := 0; j < k; j++ {
			for _, i := range r.Perm(rows)[:draw(s.colLo, s.colHi)] {
				x := r.Float64()
				ac.Append(i, j, x)
				d.Set(i, j, x)
			}
			for _, c := range r.Perm(n)[:draw(s.bLo, s.bHi)] {
				bc.Append(j, c, r.Float64())
			}
		}
		v, bw := NewColView(ac.ToCSR(), 0, rows), FullCSR(bc.ToCSR())
		c := mat.NewDense(rows, n)
		b.Run(s.name+"/spspd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SpSpDCols(c, v, 0, 0, bw)
			}
		})
		b.Run(s.name+"/dspd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dspdCols(c, d, bw)
			}
		})
	}
}
