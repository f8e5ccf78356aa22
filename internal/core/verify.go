package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// Result verification: Freivalds' algorithm checks C = A·B without
// recomputing the product. Each round draws a random ±1 vector x and
// compares A·(B·x) against C·x. A wrong product survives one round with
// probability at most 1/2, so k rounds bound the false-negative rate by
// 2^-k; a correct product always passes. The check guards the serving stack
// against a silently wrong result from a miscompiled or bit-flipped kernel
// path.
//
// The probes of a call travel together: the ±1 vectors ride with the
// magnitude column (x = 1, matrix entries by absolute value, which bounds
// every probe row) as one Panel, so B, A and C are each swept once per slab
// of probeSlab rounds instead of once per vector. The cost is O(stored
// cells) — non-zeros of sparse tiles, rows × cols of dense ones — per
// sweep. DESIGN.md §7 has the measurements behind the constants.

const (
	// probeSlab is the number of ±1 probe columns a panel carries next to
	// its magnitude column; a check of more rounds runs in slabs of this
	// many, so panel memory is O(n) whatever k is, and the row bodies keep
	// one accumulator per column in a register. A slab with a single round
	// left leaves its second probe column zero.
	probeSlab  = 2
	panelWidth = probeSlab + 1
	// teamSweepCells is the number of stored cells from which a matrix is
	// swept by the workers; below it the dispatch costs more than the
	// sweep, which then runs on the calling goroutine.
	teamSweepCells = 1 << 19
	// sweepChunksPerCore is how many row chunks a worker sweep cuts per
	// core, so that a dry worker finds work left on another's queue.
	sweepChunksPerCore = 4
)

// ErrVerifyFailed reports a product that failed Freivalds verification:
// the returned C is not A·B. errors.Is-able through the *VerifyError
// wrapper MultiplyOpt returns.
var ErrVerifyFailed = errors.New("core: result verification failed")

// VerifyError carries the first failing probe of a Freivalds check.
type VerifyError struct {
	Round int     // 1-based round that failed
	Row   int     // result row where A·(B·x) and C·x diverged
	Got   float64 // (C·x)[Row]
	Want  float64 // (A·(B·x))[Row]
	Tol   float64 // tolerance the difference exceeded
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("core: result verification failed: round %d row %d: C·x = %g, A·(B·x) = %g (tolerance %g)",
		e.Round, e.Row, e.Got, e.Want, e.Tol)
}

func (e *VerifyError) Unwrap() error { return ErrVerifyFailed }

// Panel is a slab of probe vectors of one length, each a contiguous column.
// Column 0 is the magnitude column: it starts as all ones and every matrix
// it passes through applies to it by absolute value; the other
// Width()-1 columns are the ±1 probes of consecutive rounds.
type Panel struct {
	n    int
	data []float64
}

// NewPanel returns a zeroed panel over n rows.
func NewPanel(n int) Panel { return Panel{n: n, data: make([]float64, n*panelWidth)} }

// Width returns the number of columns, the magnitude column included.
func (p Panel) Width() int { return panelWidth }

// Col returns column j.
func (p Panel) Col(j int) []float64 { return p.data[j*p.n : (j+1)*p.n : (j+1)*p.n] }

// Sweeper says where the matrix sweeps of a verification run. The zero
// value runs them on the calling goroutine; TeamSweeper puts the sweep of a
// matrix of teamSweepCells stored cells or more on the worker teams.
// Neither the panels nor the verdict depend on which: every output row is
// summed by exactly one goroutine, over the tiles in Tiles order.
type Sweeper struct {
	ctx      context.Context
	cfg      *Config
	watchdog time.Duration
}

// TeamSweeper returns a Sweeper that runs large sweeps through RunHomed on
// cfg's workers under ctx (nil: not cancellable) and the per-item watchdog.
func TeamSweeper(ctx context.Context, cfg Config, watchdog time.Duration) Sweeper {
	return Sweeper{ctx: ctx, cfg: &cfg, watchdog: watchdog}
}

func (s Sweeper) ctxErr() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// Mul computes out = M·in, or Mᵀ·in with trans, for every column of the
// panels: the magnitude column through |M|, the probes through M. It
// returns the context's error when the sweeper's context is done — out is
// then partly filled and must not be compared — and a run failure
// (*sched.WatchdogError, *sched.TaskPanicError) wrapped.
func (s Sweeper) Mul(m *ATMatrix, trans bool, in, out Panel) error {
	return s.sweep(m, trans, in, out, false)
}

// sweep is Mul, or with probesOnly Mul of the probe columns alone: the
// result's sweep has no use for a magnitude column.
func (s Sweeper) sweep(m *ATMatrix, trans bool, in, out Panel, probesOnly bool) error {
	return s.sweepSums(m, trans, in, out, probesOnly, tileSums{})
}

// sweepSums is sweep, reading the dense tiles sums holds them for: their
// sums are added instead.
func (s Sweeper) sweepSums(m *ATMatrix, trans bool, in, out Panel, probesOnly bool, sums tileSums) error {
	rows, cols := m.Rows, m.Cols
	if trans {
		rows, cols = cols, rows
	}
	if in.n != cols || out.n != rows {
		panic(fmt.Sprintf("core: panel sweep shape mismatch: matrix %d×%d (trans %v), in %d rows, out %d rows",
			m.Rows, m.Cols, trans, in.n, out.n))
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	var runErr error
	switch {
	case trans:
		// The scatter form writes all of out from every row; it stays on
		// the caller.
		m.scatter(in, out)
	case s.cfg == nil || m.storedCellsBefore(m.Rows) < teamSweepCells:
		m.gatherRows(in, out, probesOnly, sums, 0, m.Rows)
	default:
		cuts := rowCuts(m.Rows, m, *s.cfg)
		_, runErr = RunHomed(s.ctx, *s.cfg, s.watchdog, len(cuts)-1,
			func(i int) int { return cuts[i] },
			func(_ *sched.Team, i int) { m.gatherRows(in, out, probesOnly, sums, cuts[i], cuts[i+1]) })
	}
	// A cancelled run skipped items: report that, not a verdict on a
	// half-filled panel.
	if err := s.ctxErr(); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("core: verification sweep failed: %w", runErr)
	}
	return nil
}

// storedCellsBefore counts the cells stored in rows [0, r): non-zeros of
// sparse tiles (read off RowPtr), rows × cols of dense ones. It is the work
// a sweep does on those rows, and monotone in r.
func (m *ATMatrix) storedCellsBefore(r int) int64 {
	var n int64
	for _, t := range m.Tiles {
		h := min(max(r-t.Row0, 0), t.Rows)
		if t.Kind == mat.Sparse {
			n += t.Sp.RowPtr[h]
		} else {
			n += int64(h) * int64(t.Cols)
		}
	}
	return n
}

// cellBalancedCuts cuts [0, Rows) into at most parts contiguous row chunks
// of roughly equal stored cells and returns the chunk boundaries, first 0
// and last Rows. A skewed matrix (R-MAT piles its non-zeros on the first
// rows) gets short chunks where it is heavy.
func (m *ATMatrix) cellBalancedCuts(parts int) []int {
	total := m.storedCellsBefore(m.Rows)
	cuts := make([]int, 1, parts+1)
	for i := 1; i < parts; i++ {
		target := total * int64(i) / int64(parts)
		prev := cuts[len(cuts)-1]
		r := prev + sort.Search(m.Rows-prev, func(d int) bool { return m.storedCellsBefore(prev+d) >= target })
		if r > prev && r < m.Rows {
			cuts = append(cuts, r)
		}
	}
	return append(cuts, m.Rows)
}

// gatherRows is the gather form of the kernel: rows [r0, r1) of out = M·in,
// column 0 through |M| — or, with probesOnly, of the probe columns alone.
// Each row is zeroed and then receives one sum per tile that covers it, in
// Tiles order, so its value does not depend on how the rows were chunked.
// A dense tile's sum is read from sums when it holds them: the same bits.
func (m *ATMatrix) gatherRows(in, out Panel, probesOnly bool, sums tileSums, r0, r1 int) {
	var x, y [panelWidth][]float64
	for j := range x {
		x[j], y[j] = in.Col(j), out.Col(j)
		if j > 0 || !probesOnly {
			clear(y[j][r0:r1])
		}
	}
	for i, t := range m.Tiles {
		lo, hi := max(r0, t.Row0), min(r1, t.Row0+t.Rows)
		if lo >= hi {
			continue
		}
		c0, c1 := t.Col0, t.Col0+t.Cols
		switch {
		case t.Kind == mat.Sparse && probesOnly:
			gatherSparseProbes(t.Sp, lo-t.Row0, x[1][c0:c1], x[2][c0:c1], y[1][lo:hi], y[2][lo:hi])
		case t.Kind == mat.Sparse:
			gatherSparse(t.Sp, lo-t.Row0, x[0][c0:c1], x[1][c0:c1], x[2][c0:c1], y[0][lo:hi], y[1][lo:hi], y[2][lo:hi])
		case probesOnly && sums.off != nil:
			o := int(sums.off[i]) + lo - t.Row0
			addSums(sums.data[o:], sums.data[sums.stride+o:], y[1][lo:hi], y[2][lo:hi])
		case probesOnly:
			gatherDenseProbes(t.D.Data[(lo-t.Row0)*t.D.Stride:], t.D.Stride, t.D.Cols, x[1][c0:c1], x[2][c0:c1], y[1][lo:hi], y[2][lo:hi])
		default:
			gatherDense(t.D.Data[(lo-t.Row0)*t.D.Stride:], t.D.Stride, t.D.Cols, x[0][c0:c1], x[1][c0:c1], x[2][c0:c1], y[0][lo:hi], y[1][lo:hi], y[2][lo:hi])
		}
	}
}

// The row bodies below compute y[i] += Σ v·x[col] over tile-local rows
// lo, lo+1, … (one per element of y) with one accumulator per panel column:
// the sums of a row are independent add chains, which is where the time
// goes — the sweeps are cache-resident. Column 0 sums |v|. gatherDense's
// rows are unrolled two ways for the same reason; the probe columns of a
// dense row are kernels.ProbeRow's four lanes.

//atlint:hotpath
func gatherSparse(sp *mat.CSR, lo int, x0, x1, x2, y0, y1, y2 []float64) {
	ptr := sp.RowPtr[lo : lo+len(y0)+1]
	x1, x2 = x1[:len(x0)], x2[:len(x0)]
	y1, y2 = y1[:len(y0)], y2[:len(y0)]
	for i := range y0 {
		p, q := ptr[i], ptr[i+1]
		if p == q {
			continue
		}
		cols := sp.ColIdx[p:q]
		vals := sp.Val[p:q]
		vals = vals[:len(cols)]
		var s0, s1, s2 float64
		for k, c := range cols {
			v := vals[k]
			s0 += math.Abs(v) * x0[c]
			s1 += v * x1[c]
			s2 += v * x2[c]
		}
		y0[i] += s0
		y1[i] += s1
		y2[i] += s2
	}
}

//atlint:hotpath
func gatherSparseProbes(sp *mat.CSR, lo int, x1, x2, y1, y2 []float64) {
	ptr := sp.RowPtr[lo : lo+len(y1)+1]
	x2 = x2[:len(x1)]
	y2 = y2[:len(y1)]
	for i := range y1 {
		p, q := ptr[i], ptr[i+1]
		if p == q {
			continue
		}
		cols := sp.ColIdx[p:q]
		vals := sp.Val[p:q]
		vals = vals[:len(cols)]
		var s1, s2 float64
		for k, c := range cols {
			v := vals[k]
			s1 += v * x1[c]
			s2 += v * x2[c]
		}
		y1[i] += s1
		y2[i] += s2
	}
}

//atlint:hotpath
func gatherDense(data []float64, stride, cols int, x0, x1, x2, y0, y1, y2 []float64) {
	y1, y2 = y1[:len(y0)], y2[:len(y0)]
	for i := range y0 {
		row := data[i*stride : i*stride+cols]
		x0, x1, x2 := x0[:len(row)], x1[:len(row)], x2[:len(row)]
		var a0, a1, a2, b0, b1, b2 float64
		c := 0
		for ; c+1 < len(row); c += 2 {
			v, u := row[c], row[c+1]
			a0 += math.Abs(v) * x0[c]
			b0 += math.Abs(u) * x0[c+1]
			a1 += v * x1[c]
			b1 += u * x1[c+1]
			a2 += v * x2[c]
			b2 += u * x2[c+1]
		}
		if c < len(row) {
			v := row[c]
			a0 += math.Abs(v) * x0[c]
			a1 += v * x1[c]
			a2 += v * x2[c]
		}
		y0[i] += a0 + b0
		y1[i] += a1 + b1
		y2[i] += a2 + b2
	}
}

// gatherDenseProbes takes a dense row's probe sums as the row bodies of a
// verified multiply take them (takeSums): kernels.ProbeRow's.
//
//atlint:hotpath
func gatherDenseProbes(data []float64, stride, cols int, x1, x2, y1, y2 []float64) {
	y2 = y2[:len(y1)]
	for i := range y1 {
		s1, s2, _ := kernels.ProbeRow(data[i*stride:i*stride+cols], x1, x2)
		y1[i] += s1
		y2[i] += s2
	}
}

//atlint:hotpath
func addSums(s1, s2, y1, y2 []float64) {
	s1, s2, y2 = s1[:len(y1)], s2[:len(y1)], y2[:len(y1)]
	for i := range y1 {
		y1[i] += s1[i]
		y2[i] += s2[i]
	}
}

// scatter is the scatter form of the kernel, out = Mᵀ·in: every stored
// cell (r, c) adds to out[c], so probes pass through a transposed leaf
// without the transpose being built. One pass per column.
func (m *ATMatrix) scatter(in, out Panel) {
	clear(out.data)
	for j := 0; j < panelWidth; j++ {
		keep := ^uint64(0)
		if j == 0 {
			keep = ^signBit
		}
		x, y := in.Col(j), out.Col(j)
		for _, t := range m.Tiles {
			xt, yt := x[t.Row0:t.Row0+t.Rows], y[t.Col0:t.Col0+t.Cols]
			if t.Kind == mat.Sparse {
				scatterSparse(t.Sp, keep, xt, yt)
			} else {
				scatterDense(t.D, keep, xt, yt)
			}
		}
	}
}

const signBit = uint64(1) << 63

// masked returns v with the bits outside keep cleared: v itself for a probe
// column, |v| for the magnitude column.
func masked(v float64, keep uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) & keep)
}

//atlint:hotpath
func scatterSparse(sp *mat.CSR, keep uint64, x, y []float64) {
	for r, xr := range x {
		p, q := sp.RowPtr[r], sp.RowPtr[r+1]
		cols := sp.ColIdx[p:q]
		vals := sp.Val[p:q]
		vals = vals[:len(cols)]
		for k, c := range cols {
			y[c] += masked(vals[k], keep) * xr
		}
	}
}

//atlint:hotpath
func scatterDense(d *mat.Dense, keep uint64, x, y []float64) {
	for r, xr := range x {
		row := d.RowSlice(r)
		y := y[:len(row)]
		for c, v := range row {
			y[c] += masked(v, keep) * xr
		}
	}
}

// VerifyProduct runs k Freivalds rounds over C = A·B with the given seed on
// the calling goroutine and returns a *VerifyError (matching
// ErrVerifyFailed) on the first failing probe. The comparison tolerance is
// scaled per row by |A|·|B|·1 — the worst-case magnitude flowing through
// the probe — so legitimate floating-point reassociation between the
// multiplication and the probe never trips the check, while a flipped
// mantissa bit towers above it.
func VerifyProduct(a, b, c *ATMatrix, k int, seed int64) error {
	return VerifyProductOn(Sweeper{}, a, b, c, k, seed)
}

// VerifyProductOn is VerifyProduct with the sweeps run by s. Besides the
// verdict it can return the sweeper's context error or a wrapped run
// failure; neither matches ErrVerifyFailed.
func VerifyProductOn(s Sweeper, a, b, c *ATMatrix, k int, seed int64) error {
	if k <= 0 {
		return nil
	}
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("core: verify shape mismatch: A %d×%d, B %d×%d, C %d×%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	ck := newProductCheck(a, b, k, seed, 0)
	return ck.run(s, a, b, c)
}

// productCheck is one Freivalds check of C = A·B: k rounds of a seed's
// probes, the panels the sweeps of B and A fill and C·x's panel.
// VerifyProductOn sweeps all of C. MultiplyOpt sets its check up before C
// exists, so that the row bodies finishing C's dense tiles take their probe
// sums (tileSums) while the rows are in cache; its sweep of C then reads the
// sparse tiles only.
type productCheck struct {
	k         int
	x         probes
	got, y, z Panel
	sums      tileSums
}

// newProductCheck sets up a check of k rounds of seed over A·B, with room
// for the sums of denseRows dense result rows, from one allocation.
func newProductCheck(a, b *ATMatrix, k int, seed int64, denseRows int) productCheck {
	slabs := (k + probeSlab - 1) / probeSlab
	buf := make([]float64, (slabs*b.Cols+2*a.Rows+b.Rows)*panelWidth+slabs*probeSlab*denseRows)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	return productCheck{
		k:    k,
		x:    drawProbes(seed, k, b.Cols, take(slabs*b.Cols*panelWidth)),
		got:  Panel{n: a.Rows, data: take(a.Rows * panelWidth)},
		y:    Panel{n: b.Rows, data: take(b.Rows * panelWidth)},
		z:    Panel{n: a.Rows, data: take(a.Rows * panelWidth)},
		sums: tileSums{data: buf, stride: denseRows},
	}
}

// run checks c against A·B, reading the sums of c's dense tiles once
// MultiplyOpt has said where they are (sums.off).
func (ck *productCheck) run(s Sweeper, a, b, c *ATMatrix) error {
	return s.freivalds(c, ck.sums, ck.k, 1e-9, ck.x, ck.got, func(x Panel) (Panel, error) {
		if err := s.Mul(b, false, x, ck.y); err != nil {
			return ck.z, err
		}
		return ck.z, s.Mul(a, false, ck.y, ck.z)
	})
}

// takeSums writes the probe sums of one finished row of a dense result tile
// whose columns start at c0, and returns the row's non-zeros; at is the
// row's place in the sums, its tile's start plus its tile-local row. The
// sums are kernels.ProbeRow's, one slab of probe columns at a time.
//
//atlint:hotpath
func (ck *productCheck) takeSums(row []float64, c0, at int) int64 {
	c1, st := c0+len(row), ck.sums.stride
	var nnz int64
	for done := 0; done < ck.k; done += probeSlab {
		x := ck.x.slab(done)
		y := ck.sums.data[done*st+at:]
		var n int64
		y[0], y[st], n = kernels.ProbeRow(row, x.Col(1)[c0:c1], x.Col(2)[c0:c1])
		if done == 0 {
			nnz = n
		}
	}
	return nnz
}

// tileSums are the probe sums of a product's dense tiles, taken by
// MultiplyOpt's row bodies once a tile's rows hold their final values:
// round j's sum over row r of the tile whose sums start at off is
// data[j·stride + off + r], formed as gatherDenseProbes forms it, so a
// sweep that adds them fills the panel a sweep of the tile would. They are
// read once off, set when the product is assembled, says where each tile's
// sums start; the zero value holds none.
type tileSums struct {
	data   []float64
	stride int
	off    []int32 // by the product's tile: where its sums start (dense tiles)
}

// from returns the sums of the rounds from done+1 on.
func (s tileSums) from(done int) tileSums {
	s.data = s.data[done*s.stride:]
	return s
}

// probes are a check's ±1 vectors over the result's columns, all drawn
// before the check starts: one panel per slab of probeSlab rounds, column 0
// all ones, a slab with one round left leaving its second column zero.
type probes struct {
	n    int
	data []float64
}

// drawProbes draws k rounds of seed over n columns into buf, round-major
// from one generator: round r of a seed is the same vector whatever the
// slab width. Each entry's sign is one bit of a 64-bit draw, a round's
// column taking a new draw at every 64th entry from its first.
func drawProbes(seed int64, k, n int, buf []float64) probes {
	p := probes{n: n, data: buf}
	rng := rand.New(rand.NewSource(seed))
	for done := 0; done < k; done += probeSlab {
		x := p.slab(done)
		for j := range panelWidth {
			col := x.Col(j)
			switch {
			case j == 0:
				for i := range col {
					col[i] = 1
				}
			case done+j <= k:
				var bits uint64
				for i := range col {
					if i&63 == 0 {
						bits = rng.Uint64()
					}
					col[i] = float64(int(bits&1)*2 - 1) // ±1
					bits >>= 1
				}
			}
		}
	}
	return p
}

// slab returns the panel of the rounds from done+1 on.
func (p probes) slab(done int) Panel {
	w := p.n * panelWidth
	s := done / probeSlab * w
	return Panel{n: p.n, data: p.data[s : s+w : s+w]}
}

// Freivalds checks result against an operator E given only as apply, which
// returns E·X (magnitude column through |E|) for a panel X it only reads: k
// rounds with the seed's probes, a row failing when it differs from
// result's by more than relTol·(|E|·1) + 1e-12. expr verifies a fused
// expression this way, apply being a walk over its tree; the error is
// VerifyProductOn's.
func (s Sweeper) Freivalds(result *ATMatrix, k int, seed int64, relTol float64, apply func(x Panel) (Panel, error)) error {
	if k <= 0 {
		return nil
	}
	w := (k + probeSlab - 1) / probeSlab * result.Cols * panelWidth
	buf := make([]float64, w+result.Rows*panelWidth)
	return s.freivalds(result, tileSums{}, k, relTol, drawProbes(seed, k, result.Cols, buf[:w:w]), Panel{n: result.Rows, data: buf[w:]}, apply)
}

// resultPanelHook, when set, is shown every slab of C·x a check built from
// tile sums, with the probes it was taken against.
var resultPanelHook func(c *ATMatrix, x, got Panel)

// freivalds is the one Freivalds loop, over the probes xs drawn for
// result's columns; got is a scratch panel over its rows; the sweep of
// result reads sums in place of the dense tiles it holds them for.
func (s Sweeper) freivalds(result *ATMatrix, sums tileSums, k int, relTol float64, xs probes, got Panel, apply func(x Panel) (Panel, error)) error {
	for done := 0; done < k; done += probeSlab {
		rounds := min(probeSlab, k-done)
		x := xs.slab(done)
		want, err := apply(x)
		if err != nil {
			return err
		}
		if err := s.sweepSums(result, false, x, got, true, sums.from(done)); err != nil {
			return err
		}
		if sums.off != nil && resultPanelHook != nil {
			resultPanelHook(result, x, got)
		}
		if ve := comparePanels(want, got, relTol, done, rounds); ve != nil {
			return ve
		}
	}
	return nil
}

// comparePanels returns the first probe, round-major and row-ascending, on
// which got differs from want by more than relTol·bound + 1e-12, bound
// being want's magnitude column; the slab's rounds are numbered from
// done+1. A row whose bound is not finite has no tolerance to compare
// against and is judged by nonFiniteAgree.
func comparePanels(want, got Panel, relTol float64, done, rounds int) *VerifyError {
	bound := want.Col(0)
	for j := 1; j <= rounds; j++ {
		z, w := want.Col(j), got.Col(j)
		w = w[:len(z)]
		for i, zi := range z {
			tol := relTol*bound[i] + 1e-12
			if math.IsInf(tol, 0) || math.IsNaN(tol) {
				if nonFiniteAgree(zi, w[i]) {
					continue
				}
			} else if d := math.Abs(zi - w[i]); d <= tol {
				continue
			}
			return &VerifyError{Round: done + j, Row: i, Got: w[i], Want: zi, Tol: tol}
		}
	}
	return nil
}

// nonFiniteAgree judges a probe row whose magnitude bound is ±Inf or NaN:
// an operand holds ±Inf or NaN there, or finite entries overflowed. Such a
// row of a correct product is the same infinity on both sides, or NaN on
// one or both — a·(Σ b·x) is one infinity where Σ (a·b)·x adds infinities
// of both signs — so that passes, as do two finite values (the tolerance is
// infinite). One finite side, or opposite infinities, is a wrong product.
func nonFiniteAgree(z, w float64) bool {
	zFin, wFin := !math.IsInf(z, 0) && !math.IsNaN(z), !math.IsInf(w, 0) && !math.IsNaN(w)
	if zFin || wFin {
		return zFin && wFin
	}
	return z == w || math.IsNaN(z) || math.IsNaN(w)
}
