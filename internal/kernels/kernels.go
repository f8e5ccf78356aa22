package kernels

import (
	"fmt"

	"atmatrix/internal/mat"
)

// CSRWin references a rectangular window of a CSR matrix: rows
// [Row0, Row0+Rows) × columns [Col0, Col0+Cols), with coordinates rebased
// to the window origin. Row subranges are free in CSR; column subranges
// are located per row with binary search over the sorted column ids
// (§III-B).
type CSRWin struct {
	M          *mat.CSR
	Row0, Col0 int
	Rows, Cols int

	// spanLo/spanHi, when non-nil, hold the precomputed [lo, hi)
	// positions of every window row's column range inside M.ColIdx/Val
	// (see BuildIndex). Narrowing the row range of an indexed window
	// invalidates the index; only whole windows carry it.
	spanLo, spanHi []int64
}

// BuildIndex precomputes the column-range span of every window row with
// one binary search pass, so that subsequent row accesses are O(1). In
// Gustavson-style kernels the right-hand operand's rows are visited once
// per contributing left-hand element, so a windowed B tile would
// otherwise pay a binary search per multiply-add — this is the mitigation
// for the referenced-submatrix overhead discussed in §III-B. Full-width
// windows need no index.
func (w *CSRWin) BuildIndex() {
	if !w.NeedsIndex() {
		return
	}
	w.BuildIndexIn(make([]int64, 2*w.Rows))
}

// NeedsIndex reports whether BuildIndex would compute spans for this
// window: full-width windows read rows directly and need none.
func (w *CSRWin) NeedsIndex() bool {
	return !(w.Col0 == 0 && w.Cols == w.M.Cols)
}

// BuildIndexIn is BuildIndex with caller-provided span storage: the spans
// occupy buf[:2*Rows] and the remainder is returned, so a caller indexing
// many windows per operation (ATMULT pre-indexes every sparse B tile
// against every column band) can carve them all from one allocation. The
// window must need an index (see NeedsIndex) and buf must hold at least
// 2*Rows entries.
func (w *CSRWin) BuildIndexIn(buf []int64) []int64 {
	n := w.Rows
	w.spanLo, w.spanHi = buf[:n:n], buf[n:2*n:2*n]
	c0, c1 := int32(w.Col0), int32(w.Col0+w.Cols)
	for r := 0; r < n; r++ {
		w.spanLo[r], w.spanHi[r] = w.M.ColSpan(w.Row0+r, c0, c1)
	}
	return buf[2*n:]
}

// FullCSR wraps an entire CSR matrix as a window.
func FullCSR(m *mat.CSR) CSRWin {
	return CSRWin{M: m, Rows: m.Rows, Cols: m.Cols}
}

// NNZ counts the stored elements inside the window.
func (w CSRWin) NNZ() int64 {
	return w.M.NNZInWindow(w.Row0, w.Row0+w.Rows, int32(w.Col0), int32(w.Col0+w.Cols))
}

// RowSlice returns the window narrowed to window rows [lo, hi),
// preserving a previously built column index.
func (w CSRWin) RowSlice(lo, hi int) CSRWin {
	out := w
	out.Row0 += lo
	out.Rows = hi - lo
	if w.spanLo != nil {
		out.spanLo = w.spanLo[lo:hi]
		out.spanHi = w.spanHi[lo:hi]
	}
	return out
}

// rowsOf hoists the window's hot fields into a small accessor so inner
// loops avoid copying the CSRWin struct on every row access.
type rowsOf struct {
	m              *mat.CSR
	row0           int
	spanLo, spanHi []int64
	full           bool
	c0, c1         int32
}

func (w *CSRWin) rows() rowsOf {
	return rowsOf{
		m:      w.M,
		row0:   w.Row0,
		spanLo: w.spanLo,
		spanHi: w.spanHi,
		full:   w.Col0 == 0 && w.Cols == w.M.Cols,
		c0:     int32(w.Col0),
		c1:     int32(w.Col0 + w.Cols),
	}
}

// row returns one window row through the hoisted accessor; this runs once
// per contributing element in the Gustavson kernels.
//
//atlint:hotpath
func (a *rowsOf) row(r int) ([]int32, []float64) {
	if a.spanLo != nil {
		lo, hi := a.spanLo[r], a.spanHi[r]
		return a.m.ColIdx[lo:hi], a.m.Val[lo:hi]
	}
	if a.full {
		return a.m.Row(a.row0 + r)
	}
	lo, hi := a.m.ColSpan(a.row0+r, a.c0, a.c1)
	return a.m.ColIdx[lo:hi], a.m.Val[lo:hi]
}

// span returns window row r as a [lo, hi) range into the matrix's backing
// ColIdx/Val arrays — the pointer-free form of row, used by the merge
// kernel so its run descriptors stay free of write barriers.
//
// The column-searching case lives in spanSlow so span itself stays within
// the inlining budget — it runs once per window row in the merge kernel.
//
//atlint:hotpath
func (a *rowsOf) span(r int) (int64, int64) {
	if a.spanLo != nil {
		return a.spanLo[r], a.spanHi[r]
	}
	if a.full {
		return a.m.RowPtr[a.row0+r], a.m.RowPtr[a.row0+r+1]
	}
	return a.spanSlow(r)
}

//atlint:hotpath
func (a *rowsOf) spanSlow(r int) (int64, int64) {
	return a.m.ColSpan(a.row0+r, a.c0, a.c1)
}

// ToDense materializes the window as a dense array (the sparse→dense
// just-in-time conversion of the dynamic optimizer, §III-C).
func (w CSRWin) ToDense() *mat.Dense {
	d := mat.NewDense(w.Rows, w.Cols)
	w.fillDense(d)
	return d
}

// fillDense scatters the window into a zeroed dense target of the window's
// shape (shared by ToDense and the scratch-arena variant).
func (w CSRWin) fillDense(d *mat.Dense) {
	c0 := int32(w.Col0)
	ar := w.rows()
	for r := 0; r < w.Rows; r++ {
		cols, vals := ar.row(r)
		row := d.RowSlice(r)
		for p, c := range cols {
			row[c-c0] = vals[p]
		}
	}
}

// --- Dense-target kernels -------------------------------------------------
//
// The dense target c is a pre-sliced window (mat.Dense carries its parent
// stride, the BLAS lda), so C windows are free. All kernels accumulate:
// c += a·b.

// DDD computes c += a·b for dense a, b (the ddd_gemm kernel). It uses the
// i-k-j loop order so that the inner loop streams contiguously over B rows
// and a C row, register-blocked: four B rows are folded into the C row per
// pass (axpy4), so each C element is loaded and stored once per four
// multiply-adds instead of once per one.
//
// The zero test is hoisted to one test per 4-block of A scalars: skipping
// an all-zero block avoids the B-row traffic entirely, while a block with
// any non-zero runs the full axpy4 — multiplying the (rare, for dense
// tiles) zero scalars through is cheaper than re-introducing a per-scalar
// branch into the blocked path (DESIGN.md §4d has the measurements).
//
//atlint:hotpath
func DDD(c, a, b *mat.Dense) {
	checkDims(c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.RowSlice(i)
		crow := c.RowSlice(i)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				// All-zero block: one short-circuit test; on dense tiles it
				// fails on the first compare.
				continue
			}
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				// Full block — the common case on dense tiles.
				axpy4(crow, b.RowSlice(k), b.RowSlice(k+1), b.RowSlice(k+2), b.RowSlice(k+3), a0, a1, a2, a3)
				continue
			}
			// Partial block (a mostly-zero tile stored dense): folding the
			// zero rows through axpy4 would touch up to 4× the B traffic
			// actually needed, so fall back to per-scalar axpy here.
			if a0 != 0 {
				axpy(crow, b.RowSlice(k), a0)
			}
			if a1 != 0 {
				axpy(crow, b.RowSlice(k+1), a1)
			}
			if a2 != 0 {
				axpy(crow, b.RowSlice(k+2), a2)
			}
			if a3 != 0 {
				axpy(crow, b.RowSlice(k+3), a3)
			}
		}
		for ; k < len(arow); k++ {
			if av := arow[k]; av != 0 {
				axpy(crow, b.RowSlice(k), av)
			}
		}
	}
}

// SpDD computes c += a·b for sparse a, dense b (spdd_gemm),
// register-blocked like DDD: four stored A elements select four B rows
// folded into the C row in one axpy4 pass; the 1–3 element tail runs the
// scalar axpy edge.
//
//atlint:hotpath
func SpDD(c *mat.Dense, a CSRWin, b *mat.Dense) {
	checkDims(c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	ac0 := int32(a.Col0)
	ar := a.rows()
	for i := 0; i < a.Rows; i++ {
		cols, vals := ar.row(i)
		if len(cols) == 0 {
			continue
		}
		crow := c.RowSlice(i)
		p := 0
		for ; p+4 <= len(cols); p += 4 {
			axpy4(crow,
				b.RowSlice(int(cols[p]-ac0)), b.RowSlice(int(cols[p+1]-ac0)),
				b.RowSlice(int(cols[p+2]-ac0)), b.RowSlice(int(cols[p+3]-ac0)),
				vals[p], vals[p+1], vals[p+2], vals[p+3])
		}
		for ; p < len(cols); p++ {
			axpy(crow, b.RowSlice(int(cols[p]-ac0)), vals[p])
		}
	}
}

// DSpD computes c += a·b for dense a, sparse b (dspd_gemm) — one of the
// kernels the paper notes vendors offer no reference implementation for.
// Windows of at most contractionMajorRows rows walk A by column
// (dspdCols); taller ones walk it by row (dspdRows). Both add every output
// element's products in ascending k, so the two give the same bits.
//
//atlint:hotpath
func DSpD(c *mat.Dense, a *mat.Dense, b CSRWin) {
	checkDims(c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	if a.Rows <= contractionMajorRows {
		dspdCols(c, a, b)
		return
	}
	dspdRows(c, a, b)
}

// contractionMajorRows is the tallest window DSpD walks by column. Every
// DSpD window ATMULT forms on R1–R3 and G9 fits; ingest_store's 696-row
// TP·B0 tile does not, and there the column walk, which sweeps the whole
// target once per k, loses 2–3× (DESIGN.md §4d has the sweep).
const contractionMajorRows = 128

// dspdCols is DSpD's contraction-major walk: one B-row lookup per k.
//
//atlint:hotpath
func dspdCols(c *mat.Dense, a *mat.Dense, b CSRWin) {
	bc0 := int32(b.Col0)
	br := b.rows()
	for k := 0; k < a.Cols; k++ {
		bcols, bvals := br.row(k)
		if len(bcols) == 0 {
			continue
		}
		long := len(bcols) >= scatterUnrollMin
		for i := 0; i < a.Rows; i++ {
			av := a.Data[i*a.Stride+k]
			if av == 0 {
				continue
			}
			crow := c.RowSlice(i)
			if long {
				scatter4(crow, bcols, bvals, av, bc0)
				continue
			}
			for q, bcol := range bcols {
				crow[bcol-bc0] += av * bvals[q]
			}
		}
	}
}

// dspdRows is DSpD's row walk. The A row is consumed in 4-blocks with a
// hoisted all-zero test (one branch per four scalars instead of one per
// scalar); each contributing scalar scatters its B row through the
// unrolled scatter4. Unlike DDD, a per-scalar zero test is kept inside
// non-zero blocks: a zero A scalar here would still pay the full
// sparse-row fetch and scatter, which is far more than a predictable
// branch (DESIGN.md §4d).
//
//atlint:hotpath
func dspdRows(c *mat.Dense, a *mat.Dense, b CSRWin) {
	bc0 := int32(b.Col0)
	br := b.rows()
	for i := 0; i < a.Rows; i++ {
		arow := a.RowSlice(i)
		crow := c.RowSlice(i)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			if a0 != 0 {
				cols, vals := br.row(k)
				scatter4(crow, cols, vals, a0, bc0)
			}
			if a1 != 0 {
				cols, vals := br.row(k + 1)
				scatter4(crow, cols, vals, a1, bc0)
			}
			if a2 != 0 {
				cols, vals := br.row(k + 2)
				scatter4(crow, cols, vals, a2, bc0)
			}
			if a3 != 0 {
				cols, vals := br.row(k + 3)
				scatter4(crow, cols, vals, a3, bc0)
			}
		}
		for ; k < len(arow); k++ {
			if av := arow[k]; av != 0 {
				cols, vals := br.row(k)
				scatter4(crow, cols, vals, av, bc0)
			}
		}
	}
}

// SpSpD computes c += a·b for sparse a, sparse b into a dense target
// (spspd_gemm): Gustavson's row algorithm with the dense C row acting as
// the accumulator and the scatter unrolled four-wide (scatter4 — safe
// because column ids within a CSR row are strictly ascending, so the four
// scattered targets never alias).
//
//atlint:hotpath
func SpSpD(c *mat.Dense, a, b CSRWin) {
	checkDims(c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	ac0 := int32(a.Col0)
	bc0 := int32(b.Col0)
	ar := a.rows()
	br := b.rows()
	for i := 0; i < a.Rows; i++ {
		acols, avals := ar.row(i)
		if len(acols) == 0 {
			continue
		}
		crow := c.RowSlice(i)
		for p, acol := range acols {
			bcols, bvals := br.row(int(acol - ac0))
			if len(bcols) < scatterUnrollMin {
				// Short rows (the hypersparse class) stay inline: the
				// scatter4 call prologue would cost more than it saves.
				av := avals[p]
				for q, bcol := range bcols {
					crow[bcol-bc0] += av * bvals[q]
				}
				continue
			}
			scatter4(crow, bcols, bvals, avals[p], bc0)
		}
	}
}

// scatterUnrollMin is the row length below which the kernels keep the
// scatter loop inline instead of calling the unrolled scatter4: for the
// few-element rows of hypersparse tiles the call overhead dominates.
const scatterUnrollMin = 8

// --- Sparse-target kernels ------------------------------------------------
//
// The sparse target is a SpAcc covering the whole result tile; the kernel
// writes the window at tile offset (cRow0, cCol0). Rows are accumulated via
// the SPA and flushed once per row (Gustavson / sparse accumulator
// approach, §III-A).

// SpSpSp computes cAcc[window] += a·b for sparse operands (spspsp_gemm,
// the classical Gustavson algorithm and the paper's baseline).
//
//atlint:hotpath
func SpSpSp(cAcc *SpAcc, cRow0, cCol0 int, a, b CSRWin, spa *SPA) {
	checkAccDims(cAcc, cRow0, cCol0, a.Rows, a.Cols, b.Rows, b.Cols)
	ac0 := int32(a.Col0)
	bc0 := int32(b.Col0) - int32(cCol0) // rebase directly into tile coords
	ar := a.rows()
	br := b.rows()
	for i := 0; i < a.Rows; i++ {
		acols, avals := ar.row(i)
		if len(acols) == 0 {
			continue
		}
		spa.Reset(cAcc.Cols)
		for p, acol := range acols {
			av := avals[p]
			bcols, bvals := br.row(int(acol - ac0))
			for q, bcol := range bcols {
				spa.Add(bcol-bc0, av*bvals[q])
			}
		}
		cAcc.FlushRow(cRow0+i, spa)
	}
}

// SpDSp computes cAcc[window] += a·b for sparse a, dense b (spdsp_gemm).
//
//atlint:hotpath
func SpDSp(cAcc *SpAcc, cRow0, cCol0 int, a CSRWin, b *mat.Dense, spa *SPA) {
	checkAccDims(cAcc, cRow0, cCol0, a.Rows, a.Cols, b.Rows, b.Cols)
	ac0 := int32(a.Col0)
	ar := a.rows()
	for i := 0; i < a.Rows; i++ {
		acols, avals := ar.row(i)
		if len(acols) == 0 {
			continue
		}
		spa.Reset(cAcc.Cols)
		for p, acol := range acols {
			av := avals[p]
			brow := b.RowSlice(int(acol - ac0))
			for j, bv := range brow {
				if bv != 0 {
					spa.Add(int32(cCol0+j), av*bv)
				}
			}
		}
		cAcc.FlushRow(cRow0+i, spa)
	}
}

// DSpSp computes cAcc[window] += a·b for dense a, sparse b (dspsp_gemm).
//
//atlint:hotpath
func DSpSp(cAcc *SpAcc, cRow0, cCol0 int, a *mat.Dense, b CSRWin, spa *SPA) {
	checkAccDims(cAcc, cRow0, cCol0, a.Rows, a.Cols, b.Rows, b.Cols)
	bc0 := int32(b.Col0) - int32(cCol0)
	br := b.rows()
	for i := 0; i < a.Rows; i++ {
		arow := a.RowSlice(i)
		spa.Reset(cAcc.Cols)
		any := false
		for k, av := range arow {
			if av == 0 {
				continue
			}
			bcols, bvals := br.row(k)
			for q, bcol := range bcols {
				spa.Add(bcol-bc0, av*bvals[q])
				any = true
			}
		}
		if any {
			cAcc.FlushRow(cRow0+i, spa)
		}
	}
}

// DDSp computes cAcc[window] += a·b for dense operands into a sparse
// target (ddsp_gemm). It exists for completeness of the eightfold model;
// the cost-based optimizer essentially never picks it.
//
//atlint:hotpath
func DDSp(cAcc *SpAcc, cRow0, cCol0 int, a, b *mat.Dense, spa *SPA) {
	checkAccDims(cAcc, cRow0, cCol0, a.Rows, a.Cols, b.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.RowSlice(i)
		spa.Reset(cAcc.Cols)
		any := false
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.RowSlice(k)
			for j, bv := range brow {
				if bv != 0 {
					spa.Add(int32(cCol0+j), av*bv)
					any = true
				}
			}
		}
		if any {
			cAcc.FlushRow(cRow0+i, spa)
		}
	}
}

// axpy computes y += alpha·x over equal-length slices, with a pure-add
// fast path for alpha == 1 (no multiply) and a 4-wide unrolled main loop
// with a scalar tail. The explicit re-slicing (y = y[:len(x)] after
// clamping x) lets the compiler elide the per-element bounds checks in
// both unrolled bodies.
//
//atlint:hotpath
func axpy(y, x []float64, alpha float64) {
	if len(x) > len(y) {
		x = x[:len(y)]
	}
	y = y[:len(x)]
	i := 0
	if alpha == 1 {
		for ; i+4 <= len(x); i += 4 {
			y[i] += x[i]
			y[i+1] += x[i+1]
			y[i+2] += x[i+2]
			y[i+3] += x[i+3]
		}
		for ; i < len(x); i++ {
			y[i] += x[i]
		}
		return
	}
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// axpy4 folds four scaled rows into y in one pass:
// y += a0·x0 + a1·x1 + a2·x2 + a3·x3. This is the register-blocked
// micro-kernel of the dense/mixed kernels: the inner loop advances four
// columns at a time, so each iteration computes a 4×4 block of products
// (four B rows × four columns) held entirely in local scalars, and each C
// element is loaded and stored once per four multiply-adds. All five
// slices are re-sliced to a common length up front for bounds-check
// elimination.
//
//atlint:hotpath
func axpy4(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	n := len(y)
	if len(x0) < n {
		n = len(x0)
	}
	if len(x1) < n {
		n = len(x1)
	}
	if len(x2) < n {
		n = len(x2)
	}
	if len(x3) < n {
		n = len(x3)
	}
	y = y[:n]
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
		y[i+1] += a0*x0[i+1] + a1*x1[i+1] + a2*x2[i+1] + a3*x3[i+1]
		y[i+2] += a0*x0[i+2] + a1*x1[i+2] + a2*x2[i+2] + a3*x3[i+2]
		y[i+3] += a0*x0[i+3] + a1*x1[i+3] + a2*x2[i+3] + a3*x3[i+3]
	}
	for ; i < n; i++ {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// scatter4 accumulates one scaled sparse row into a dense row:
// y[cols[p]-c0] += alpha·vals[p], unrolled four-wide. Column ids within a
// CSR row are strictly ascending, so the four targets of an unrolled step
// are distinct and the four read-modify-writes never alias.
//
//atlint:hotpath
func scatter4(y []float64, cols []int32, vals []float64, alpha float64, c0 int32) {
	vals = vals[:len(cols)] // bounds hint: one check instead of one per element
	p := 0
	for ; p+4 <= len(cols); p += 4 {
		j0, j1, j2, j3 := cols[p]-c0, cols[p+1]-c0, cols[p+2]-c0, cols[p+3]-c0
		v0, v1, v2, v3 := vals[p], vals[p+1], vals[p+2], vals[p+3]
		y[j0] += alpha * v0
		y[j1] += alpha * v1
		y[j2] += alpha * v2
		y[j3] += alpha * v3
	}
	for ; p < len(cols); p++ {
		y[cols[p]-c0] += alpha * vals[p]
	}
}

func checkDims(cm, cn, am, ak, bk, bn int) {
	if am != cm || bn != cn || ak != bk {
		panic(fmt.Sprintf("kernels: dimension mismatch C[%d×%d] += A[%d×%d]·B[%d×%d]", cm, cn, am, ak, bk, bn))
	}
}

// checkAccDims takes the operand shapes as plain ints rather than a shape
// interface: boxing a CSRWin into an interface costs two heap allocations
// per kernel call, which is exactly the per-call overhead the 0-allocs/op
// fence exists to catch.
func checkAccDims(c *SpAcc, cRow0, cCol0, am, ak, bk, bn int) {
	if ak != bk {
		panic(fmt.Sprintf("kernels: contraction mismatch %d vs %d", ak, bk))
	}
	if cRow0 < 0 || cCol0 < 0 || cRow0+am > c.Rows || cCol0+bn > c.Cols {
		panic(fmt.Sprintf("kernels: target window [%d+%d,%d+%d] outside %d×%d tile", cRow0, am, cCol0, bn, c.Rows, c.Cols))
	}
}
