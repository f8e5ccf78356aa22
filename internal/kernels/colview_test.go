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
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Error(err)
	}
}

func TestPropertySpSpDColsBits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(300), 1+r.Intn(60)
		a := oddCSR(r, rows, cols)
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
		for _, ch := range chunks(r, r1-r0) {
			cv := got.View(ch[0], ch[1], 0, n)
			SpSpDCols(&cv, v, ch[0], kc0, b)
		}
		return sameBits(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(62))}); err != nil {
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

// BenchmarkDSpDHeight is the sweep behind contractionMajorRows: both walks
// of DSpD on windows 32 to 1024 rows tall, in two shapes. window is what
// ATMULT forms on R1–R3: a dense A tile 1024 wide at 50 % fill times a
// 64-column window of a sparse 1024² B tile, pre-indexed, about 1.5
// entries per window row. tile is ingest_store's mult_read, TP·B0: A 696
// wide at 92 % fill times a whole 696² B tile with 32 entries per row.
func BenchmarkDSpDHeight(b *testing.B) {
	r := rand.New(rand.NewSource(63))
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
			}{{"rows", dspdRows}, {"cols", dspdCols}} {
				b.Run(s.name+"/"+walk.name+"/"+strconv.Itoa(h), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						walk.run(c, a, bw)
					}
				})
			}
		}
	}
}
