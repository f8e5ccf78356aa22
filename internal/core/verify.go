package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

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
	// swept by the worker teams; below it the fan-out costs more than the
	// sweep, which then runs on the calling goroutine.
	teamSweepCells = 1 << 19
	// sweepChunksPerCore is how many row chunks a team sweep cuts per core,
	// so that a dry team finds work left on the other's queue.
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

// carvePanels cuts one panel per entry of rows out of a single allocation:
// on a hypersparse operand the O(n) bookkeeping is the check.
func carvePanels(rows ...int) []Panel {
	total := 0
	for _, n := range rows {
		total += n * panelWidth
	}
	buf := make([]float64, total)
	out := make([]Panel, len(rows))
	for i, n := range rows {
		out[i] = Panel{n: n, data: buf[: n*panelWidth : n*panelWidth]}
		buf = buf[n*panelWidth:]
	}
	return out
}

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
// cfg's teams under ctx (nil: not cancellable) and the per-item watchdog.
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
		m.gatherRows(in, out, probesOnly, 0, m.Rows)
	default:
		cuts := rowCuts(m.Rows, m, *s.cfg)
		_, runErr = RunHomed(s.ctx, *s.cfg, s.watchdog, len(cuts)-1,
			func(i int) int { return cuts[i] },
			func(team *sched.Team, i int) {
				if team.Workers <= 1 {
					m.gatherRows(in, out, probesOnly, cuts[i], cuts[i+1])
					return
				}
				team.ParallelRows(cuts[i+1]-cuts[i], func(lo, hi, _ int) {
					m.gatherRows(in, out, probesOnly, cuts[i]+lo, cuts[i]+hi)
				})
			})
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
func (m *ATMatrix) gatherRows(in, out Panel, probesOnly bool, r0, r1 int) {
	var x, y [panelWidth][]float64
	for j := range x {
		x[j], y[j] = in.Col(j), out.Col(j)
		if j > 0 || !probesOnly {
			clear(y[j][r0:r1])
		}
	}
	for _, t := range m.Tiles {
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
// goes — the sweeps are cache-resident. Column 0 sums |v|. Dense rows are
// unrolled two ways for the same reason.

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

//atlint:hotpath
func gatherDenseProbes(data []float64, stride, cols int, x1, x2, y1, y2 []float64) {
	y2 = y2[:len(y1)]
	for i := range y1 {
		row := data[i*stride : i*stride+cols]
		x1, x2 := x1[:len(row)], x2[:len(row)]
		var a1, a2, b1, b2 float64
		c := 0
		for ; c+1 < len(row); c += 2 {
			v, u := row[c], row[c+1]
			a1 += v * x1[c]
			b1 += u * x1[c+1]
			a2 += v * x2[c]
			b2 += u * x2[c+1]
		}
		if c < len(row) {
			a1 += row[c] * x1[c]
			a2 += row[c] * x2[c]
		}
		y1[i] += a1 + b1
		y2[i] += a2 + b2
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
	p := carvePanels(b.Cols, c.Rows, b.Rows, a.Rows)
	y, z := p[2], p[3]
	return s.freivalds(c, k, seed, 1e-9, p[0], p[1], func(x Panel) (Panel, error) {
		if err := s.Mul(b, false, x, y); err != nil {
			return z, err
		}
		return z, s.Mul(a, false, y, z)
	})
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
	p := carvePanels(result.Cols, result.Rows)
	return s.freivalds(result, k, seed, relTol, p[0], p[1], apply)
}

// freivalds is the one Freivalds loop. x and got are scratch panels over
// result's columns and rows. The probes are drawn round-major from one
// generator, so round r of a seed sees the same vector whatever the slab
// width.
func (s Sweeper) freivalds(result *ATMatrix, k int, seed int64, relTol float64, x, got Panel, apply func(x Panel) (Panel, error)) error {
	rng := rand.New(rand.NewSource(seed))
	ones := x.Col(0)
	for i := range ones {
		ones[i] = 1
	}
	for done := 0; done < k; done += probeSlab {
		rounds := min(probeSlab, k-done)
		for j := 1; j <= probeSlab; j++ {
			col := x.Col(j)
			if j > rounds {
				clear(col)
				continue
			}
			for i := range col {
				col[i] = float64(rng.Intn(2)*2 - 1) // ±1
			}
		}
		want, err := apply(x)
		if err != nil {
			return err
		}
		if err := s.sweep(result, false, x, got, true); err != nil {
			return err
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
