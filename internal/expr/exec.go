package expr

import (
	"fmt"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// The executor walks the plan tree. Sub-expressions outside chains
// (sums, scales, transposes, wide pow) materialize AT MATRICES like any
// operator pipeline would; multiplication chains run one of the fused
// strategies chosen at plan time (see plan.go). Every stage is guarded:
// a panic inside a stage — injected or real — surfaces as a typed
// *StagePanicError that the serving layer quarantines instead of retrying.

// StagePanicError reports a panic recovered while executing one plan
// stage. It is deliberately not Transient(): a panicking stage indicates
// a broken kernel combination, so the service quarantines it rather than
// retrying into the same crash.
type StagePanicError struct {
	Stage string
	Val   any
}

func (e *StagePanicError) Error() string {
	return fmt.Sprintf("expr: stage %q panicked: %v", e.Stage, e.Val)
}

// ExecStats aggregates one plan execution.
type ExecStats struct {
	Wall time.Duration
	// Stages counts every executed plan stage (materialized steps and
	// fused applications alike).
	Stages int
	// FusedStages counts the stage applications that ran fused (panel
	// applications and row-stream passes) instead of materializing an
	// intermediate AT MATRIX.
	FusedStages int
	// PeakIntermediateBytes is the high-water mark of intermediate bytes
	// alive at once (operands and the final result excluded; fused
	// scratch buffers included).
	PeakIntermediateBytes int64
	// Steps describes the executed stages for response echoing.
	Steps []core.ChainStep
}

// Execute runs the plan and returns the result matrix. The result is
// always freshly allocated — callers may store or mutate it freely.
func (p *Plan) Execute() (*core.ATMatrix, *ExecStats, error) {
	t0 := time.Now()
	st := &ExecStats{}
	e := &exec{cfg: p.cfg, opts: p.opts, stats: st}
	m, owned, err := e.eval(p.root)
	if err != nil {
		return nil, nil, err
	}
	if !owned {
		// A bare identifier (or scale-free alias): copy before returning.
		m, _, err = m.Repartition(p.cfg)
		if err != nil {
			return nil, nil, err
		}
	}
	st.Wall = time.Since(t0)
	return m, st, nil
}

// Eval parses, plans, and executes src against the bindings in one call —
// the convenience entry the examples and benchmarks use; the service
// drives the phases separately for metrics.
func Eval(src string, bind map[string]*core.ATMatrix, cfg core.Config, opts Options) (*core.ATMatrix, *Plan, *ExecStats, error) {
	node, err := Parse(src)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := PlanExpr(node, bind, cfg, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	m, st, err := plan.Execute()
	if err != nil {
		return nil, plan, nil, err
	}
	return m, plan, st, nil
}

type exec struct {
	cfg   core.Config
	opts  Options
	stats *ExecStats
	live  int64
}

// alloc records b bytes of intermediate state going live.
func (e *exec) alloc(b int64) {
	e.live += b
	if e.live > e.stats.PeakIntermediateBytes {
		e.stats.PeakIntermediateBytes = e.live
	}
}

func (e *exec) release(b int64) { e.live -= b }

// freeIf releases a sub-result the executor owned.
func (e *exec) freeIf(m *core.ATMatrix, owned bool) {
	if owned {
		e.release(m.Bytes())
	}
}

func (e *exec) ctxErr() error {
	if e.opts.Mult.Ctx == nil {
		return nil
	}
	return e.opts.Mult.Ctx.Err()
}

// stage guards one plan stage: the single expr.stage fault-injection
// site, plus panic recovery into *StagePanicError.
func (e *exec) stage(label string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StagePanicError{Stage: label, Val: r}
		}
	}()
	if ferr := faultinject.Do("expr.stage"); ferr != nil {
		return fmt.Errorf("expr: stage %q: %w", label, ferr)
	}
	e.stats.Stages++
	return f()
}

// step records an executed stage producing matrix m.
func (e *exec) step(label string, m *core.ATMatrix, wall time.Duration) {
	nnz := m.NNZ()
	e.stats.Steps = append(e.stats.Steps, core.ChainStep{
		Expr: label, Rows: m.Rows, Cols: m.Cols,
		NNZ: nnz, Bytes: m.Bytes(),
		Density: float64(nnz) / (float64(m.Rows) * float64(m.Cols)),
		Wall:    wall,
	})
}

func (e *exec) eval(n planNode) (*core.ATMatrix, bool, error) {
	if err := e.ctxErr(); err != nil {
		return nil, false, err
	}
	switch v := n.(type) {
	case *leafNode:
		return v.m, false, nil
	case *transNode:
		return e.evalTranspose(v)
	case *scaleNode:
		return e.evalScale(v)
	case *addNode:
		return e.evalAdd(v)
	case *powNode:
		return e.evalPow(v)
	case *chainNode:
		return e.evalChain(v)
	}
	return nil, false, fmt.Errorf("expr: cannot execute node %T", n)
}

func (e *exec) evalTranspose(v *transNode) (*core.ATMatrix, bool, error) {
	x, owned, err := e.eval(v.x)
	if err != nil {
		return nil, false, err
	}
	var out *core.ATMatrix
	t0 := time.Now()
	err = e.stage(v.label(), func() error {
		out = x.Transpose(e.cfg)
		return nil
	})
	if err != nil {
		e.freeIf(x, owned)
		return nil, false, err
	}
	e.alloc(out.Bytes())
	e.freeIf(x, owned)
	e.step(v.label(), out, time.Since(t0))
	return out, true, nil
}

func (e *exec) evalScale(v *scaleNode) (*core.ATMatrix, bool, error) {
	x, owned, err := e.eval(v.x)
	if err != nil {
		return nil, false, err
	}
	var out *core.ATMatrix
	t0 := time.Now()
	err = e.stage(v.label(), func() error {
		if !owned {
			// Operands are immutable: scale a copy.
			var cerr error
			out, _, cerr = x.Repartition(e.cfg)
			if cerr != nil {
				return cerr
			}
		} else {
			out = x
		}
		out.Scale(v.s)
		return nil
	})
	if err != nil {
		e.freeIf(x, owned)
		return nil, false, err
	}
	if !owned {
		e.alloc(out.Bytes())
	}
	e.step(v.label(), out, time.Since(t0))
	return out, true, nil
}

// addend evaluates one operand of a sum and returns the weight it enters
// core.Add with. A scale by s ≠ 0 becomes that weight — s·v rounds as
// 1·(v·s) does, and as −(s·v) under negation — so an operand is not copied
// only to be scaled. A zero scale keeps its own stage: 0·NaN is NaN, but Add
// drops a zero-weight operand whole.
func (e *exec) addend(n planNode) (*core.ATMatrix, bool, float64, error) {
	if v, ok := n.(*scaleNode); ok && v.s != 0 {
		m, owned, err := e.eval(v.x)
		return m, owned, v.s, err
	}
	m, owned, err := e.eval(n)
	return m, owned, 1, err
}

func (e *exec) evalAdd(v *addNode) (*core.ATMatrix, bool, error) {
	l, lOwned, alpha, err := e.addend(v.l)
	if err != nil {
		return nil, false, err
	}
	r, rOwned, beta, err := e.addend(v.r)
	if err != nil {
		e.freeIf(l, lOwned)
		return nil, false, err
	}
	if v.sub {
		beta = -beta
	}
	var out *core.ATMatrix
	t0 := time.Now()
	err = e.stage(v.label(), func() error {
		var aerr error
		out, aerr = core.Add(l, r, alpha, beta, e.cfg)
		return aerr
	})
	if err != nil {
		e.freeIf(l, lOwned)
		e.freeIf(r, rOwned)
		return nil, false, err
	}
	e.alloc(out.Bytes())
	e.freeIf(l, lOwned)
	e.freeIf(r, rOwned)
	e.step(v.label(), out, time.Since(t0))
	return out, true, nil
}

func (e *exec) evalPow(v *powNode) (*core.ATMatrix, bool, error) {
	base, owned, err := e.eval(v.x)
	if err != nil {
		return nil, false, err
	}
	out, err := e.matPow(v.label(), base, owned, v.k)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// matPow materializes base^k by k−1 sequential multiplications. The two
// live matrices (current power and its successor) are the whole
// intermediate footprint — the "double buffer" of materialized power
// iteration; everything older is released as soon as it is consumed.
func (e *exec) matPow(label string, base *core.ATMatrix, baseOwned bool, k int) (*core.ATMatrix, error) {
	cur, curOwned := base, false
	t0 := time.Now()
	for i := 2; i <= k; i++ {
		if err := e.ctxErr(); err != nil {
			e.freeIf(cur, curOwned)
			e.freeIf(base, baseOwned)
			return nil, err
		}
		var next *core.ATMatrix
		err := e.stage(label, func() error {
			out, _, merr := core.MultiplyOpt(cur, base, e.cfg, e.opts.Mult)
			if merr != nil {
				return merr
			}
			if i < k {
				// Intermediate powers feed further multiplies: compact
				// them to the adaptive layout.
				out, _, merr = out.Repartition(e.cfg)
				if merr != nil {
					return merr
				}
			}
			next = out
			return nil
		})
		if err != nil {
			e.freeIf(cur, curOwned)
			e.freeIf(base, baseOwned)
			return nil, err
		}
		e.alloc(next.Bytes())
		e.freeIf(cur, curOwned)
		cur, curOwned = next, true
	}
	e.freeIf(base, baseOwned)
	if !curOwned {
		// k == 1 with an unowned base: copy out.
		out, _, err := cur.Repartition(e.cfg)
		if err != nil {
			return nil, err
		}
		e.alloc(out.Bytes())
		cur = out
	}
	e.step(label, cur, time.Since(t0))
	return cur, nil
}

func (e *exec) evalChain(v *chainNode) (*core.ATMatrix, bool, error) {
	// Materialize the factors (transposed leaves, nested sums, …); pow
	// factors stay symbolic for the panel strategy and are only
	// materialized here on the non-panel paths with huge exponents.
	mats := make([]*core.ATMatrix, len(v.factors))
	ownedF := make([]bool, len(v.factors))
	freeAll := func() {
		for i, m := range mats {
			if m != nil {
				e.freeIf(m, ownedF[i])
			}
		}
	}
	for i, f := range v.factors {
		m, owned, err := e.eval(f.node)
		if err != nil {
			freeAll()
			return nil, false, err
		}
		if f.pow > 1 && v.fusion != FusionPanel {
			m, err = e.matPow(f.label(), m, owned, f.pow)
			if err != nil {
				freeAll()
				return nil, false, err
			}
			owned = true
		}
		mats[i], ownedF[i] = m, owned
	}

	var out *core.ATMatrix
	var err error
	switch v.fusion {
	case FusionPanel:
		out, err = e.runPanel(v, mats)
	case FusionRowStream:
		out, err = e.runRowStream(v, mats)
	default:
		out, err = e.runMaterialized(v, mats)
	}
	freeAll()
	if err != nil {
		return nil, false, err
	}
	e.alloc(out.Bytes())
	return out, true, nil
}

// runMaterialized executes the chain step by step in the order the planner
// chose and reported (v.cplan) — the unfused baseline and the fallback when
// the planner rejects fusion.
func (e *exec) runMaterialized(v *chainNode, mats []*core.ATMatrix) (*core.ATMatrix, error) {
	var out *core.ATMatrix
	err := e.stage(v.label(), func() error {
		result, cstats, merr := core.ExecuteChain(mats, v.cplan, e.cfg, e.opts.Mult)
		if merr != nil {
			return merr
		}
		// Steps run in the plan's step order; name them by factor label
		// like the reported order, not by chain position.
		for s, name := range v.stepNames() {
			cstats.StepInfos[s].Expr = name
		}
		// The chain's internal peak stacks on whatever else is live.
		e.alloc(cstats.PeakIntermediateBytes)
		e.release(cstats.PeakIntermediateBytes)
		e.stats.Stages += cstats.Steps - 1 // the surrounding stage counted one
		e.stats.Steps = append(e.stats.Steps, cstats.StepInfos...)
		out = result
		return nil
	})
	if err != nil {
		return nil, err
	}
	if v.coef != 1 {
		out.Scale(v.coef)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Panel fusion: right-to-left dense-panel streaming.

// runPanel evaluates the chain right-to-left as a dense rows×w panel. The
// two flat buffers are reused (double-buffered) across every application —
// including all k applications of a pow factor — so the intermediate
// footprint is two panels regardless of chain length or exponent.
func (e *exec) runPanel(v *chainNode, mats []*core.ATMatrix) (*core.ATMatrix, error) {
	m := len(mats)
	w := mats[m-1].Cols
	maxRows := mats[m-1].Rows
	for i := 0; i < m-1; i++ {
		if mats[i].Rows > maxRows {
			maxRows = mats[i].Rows
		}
	}
	bufBytes := 2 * int64(maxRows) * int64(w) * 8
	e.alloc(bufBytes)
	defer e.release(bufBytes)
	cur := make([]float64, maxRows*w)
	nxt := make([]float64, maxRows*w)

	err := e.stage("panel:seed:"+v.factors[m-1].label(), func() error {
		seedPanel(mats[m-1], cur, w, v.coef)
		return nil
	})
	if err != nil {
		return nil, err
	}
	curRows := mats[m-1].Rows

	for i := m - 2; i >= 0; i-- {
		reps := v.factors[i].pow
		if reps < 1 {
			reps = 1
		}
		label := "panel:" + v.factors[i].label()
		stepStart := time.Now()
		for rep := 0; rep < reps; rep++ {
			if err := e.ctxErr(); err != nil {
				return nil, err
			}
			err := e.stage(label, func() error {
				if aerr := e.applyPanel(mats[i], cur, nxt, w); aerr != nil {
					return aerr
				}
				cur, nxt = nxt, cur
				curRows = mats[i].Rows
				return nil
			})
			if err != nil {
				return nil, err
			}
			e.stats.FusedStages++
		}
		e.stats.Steps = append(e.stats.Steps, core.ChainStep{
			Expr: label, Rows: mats[i].Rows, Cols: w,
			Bytes: int64(mats[i].Rows) * int64(w) * 8,
			Wall:  time.Since(stepStart),
		})
	}
	return e.panelToMatrix(cur, curRows, w)
}

// seedPanel scatters the rightmost factor into the dense panel buffer,
// folding in the chain's scalar coefficient.
//
//atlint:hotpath
func seedPanel(m *core.ATMatrix, dst []float64, w int, coef float64) {
	clear(dst[:m.Rows*w])
	for _, t := range m.Tiles {
		if t.Kind == mat.Sparse {
			for r := 0; r < t.Rows; r++ {
				lo, hi := t.Sp.RowRange(r)
				base := (t.Row0 + r) * w
				for p := lo; p < hi; p++ {
					dst[base+t.Col0+int(t.Sp.ColIdx[p])] += coef * t.Sp.Val[p]
				}
			}
			continue
		}
		for r := 0; r < t.Rows; r++ {
			row := t.D.RowSlice(r)
			base := (t.Row0 + r) * w
			for c, val := range row {
				dst[base+t.Col0+c] += coef * val
			}
		}
	}
}

// applyPanel computes dst = m · src over the panel, one RunHomed item per
// block-row of m, run where the block-row's tiles live.
func (e *exec) applyPanel(m *core.ATMatrix, src, dst []float64, w int) error {
	b := m.BAtomic
	_, err := core.RunHomed(e.opts.Mult.Ctx, e.cfg, e.opts.Mult.Watchdog, (m.Rows+b-1)/b,
		func(br int) int { return br * b },
		func(_ *sched.Team, br int) {
			lo, hi := br*b, min(br*b+b, m.Rows)
			clear(dst[lo*w : hi*w])
			for _, t := range m.RowTiles(lo) {
				tilePanelRows(t, src, dst, w, lo, hi)
			}
		})
	if err != nil {
		return err
	}
	return e.ctxErr()
}

// tilePanelRows accumulates rows [r0, r1) (matrix coordinates) of one
// tile's contribution to dst = A·src. This is the panel-fused inner loop:
// each source row slice is streamed through the LLC-resident panel band.
//
//atlint:hotpath
func tilePanelRows(t *core.Tile, src, dst []float64, w, r0, r1 int) {
	lo, hi := r0-t.Row0, r1-t.Row0
	if lo < 0 {
		lo = 0
	}
	if hi > t.Rows {
		hi = t.Rows
	}
	if t.Kind == mat.DenseKind {
		for r := lo; r < hi; r++ {
			row := t.D.RowSlice(r)
			out := dst[(t.Row0+r)*w : (t.Row0+r+1)*w]
			for c, v := range row {
				if v == 0 {
					continue
				}
				in := src[(t.Col0+c)*w : (t.Col0+c+1)*w]
				for j := range out {
					out[j] += v * in[j]
				}
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		plo, phi := t.Sp.RowRange(r)
		out := dst[(t.Row0+r)*w : (t.Row0+r+1)*w]
		for p := plo; p < phi; p++ {
			v := t.Sp.Val[p]
			c := t.Col0 + int(t.Sp.ColIdx[p])
			in := src[c*w : (c+1)*w]
			for j := range out {
				out[j] += v * in[j]
			}
		}
	}
}

// panelToMatrix partitions the final panel into an adaptive AT MATRIX: the
// panel is row-major already, so each stage task reads its rows off it, into
// a block sized for its rows all dense.
func (e *exec) panelToMatrix(buf []float64, rows, w int) (*core.ATMatrix, error) {
	out, _, err := core.PartitionRows(e.opts.Mult.Ctx, e.cfg, e.opts.Mult.Watchdog, rows, w, nil,
		func(_ *kernels.Scratch, lo, hi int, b *core.RowBlock) {
			b.Col, b.Val = make([]int32, 0, (hi-lo)*w), make([]float64, 0, (hi-lo)*w)
			for r := lo; r < hi; r++ {
				start := len(b.Col)
				for c, v := range buf[r*w : (r+1)*w] {
					if v != 0 {
						b.Col, b.Val = append(b.Col, int32(c)), append(b.Val, v)
					}
				}
				b.NNZ = append(b.NNZ, int32(len(b.Col)-start))
			}
		})
	return out, err
}

// ---------------------------------------------------------------------
// Row-stream fusion: left-to-right chained Gustavson passes.

// runRowStream evaluates a wide chain row by row: each result row is the
// left-to-right product of the row of the first factor with the remaining
// factors, computed by chained SPA passes on the two accumulators of the
// worker that runs it, and handed to core.PartitionRows as it is finished.
// No intermediate matrix is ever materialized; the per-worker footprint is
// two accumulators of the widest stage.
func (e *exec) runRowStream(v *chainNode, mats []*core.ATMatrix) (*core.ATMatrix, error) {
	n := mats[0].Rows
	maxW := 0
	for _, m := range mats {
		maxW = max(maxW, m.Cols)
	}
	// Scratch accounting: one pair of accumulators per concurrently
	// running task, bounded by the core count.
	scratchBytes := int64(min(e.cfg.Topology.TotalCores(), n)) * 2 * kernels.SPABytes(maxW)
	e.alloc(scratchBytes)
	defer e.release(scratchBytes)

	var out *core.ATMatrix
	t0 := time.Now()
	err := e.stage(v.label(), func() error {
		var perr error
		out, _, perr = core.PartitionRows(e.opts.Mult.Ctx, e.cfg, e.opts.Mult.Watchdog, n, mats[len(mats)-1].Cols, mats[0],
			func(scr *kernels.Scratch, lo, hi int, b *core.RowBlock) {
				cur, nxt := scr.SPAs()
				for i := lo; i < hi; i++ {
					b.AppendSPA(streamRow(cur, nxt, mats, i, v.coef))
				}
			})
		return perr
	})
	if err != nil {
		return nil, err
	}
	e.stats.FusedStages += len(mats) - 1
	e.step(v.label(), out, time.Since(t0))
	return out, nil
}

// streamRow computes result row i and returns the accumulator holding it:
// seed with row i of the first factor (scaled by the chain coefficient),
// then one Gustavson pass per remaining factor, ping-ponging between the
// two accumulators.
//
//atlint:hotpath
func streamRow(cur, nxt *kernels.SPA, mats []*core.ATMatrix, i int, coef float64) *kernels.SPA {
	cur.Reset(mats[0].Cols)
	spreadRow(cur, mats[0], i, coef)
	for s := 1; s < len(mats); s++ {
		nxt.Reset(mats[s].Cols)
		for _, c := range cur.Touched() {
			spreadRow(nxt, mats[s], int(c), cur.Value(c))
		}
		cur, nxt = nxt, cur
	}
	return cur
}

// spreadRow accumulates w · M[r, :] into the SPA, streaming the row
// straight out of the operand's tiles.
//
//atlint:hotpath
func spreadRow(spa *kernels.SPA, m *core.ATMatrix, r int, w float64) {
	for _, t := range m.RowTiles(r) {
		lr := r - t.Row0
		if t.Kind == mat.Sparse {
			lo, hi := t.Sp.RowRange(lr)
			for p := lo; p < hi; p++ {
				spa.Add(int32(t.Col0)+t.Sp.ColIdx[p], w*t.Sp.Val[p])
			}
			continue
		}
		row := t.D.RowSlice(lr)
		for c, v := range row {
			if v != 0 {
				spa.Add(int32(t.Col0+c), w*v)
			}
		}
	}
}
