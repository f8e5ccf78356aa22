package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"atmatrix/internal/density"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// MultOptions toggles the individual optimization components of ATMULT,
// primarily so that the Fig. 10 ablation can switch them off one by one.
// The zero value disables everything; use DefaultMultOptions for the full
// operator.
type MultOptions struct {
	// Estimate enables result-density estimation; without it every
	// target tile is written sparse (ablation steps 1–2).
	Estimate bool
	// DynOpt enables the dynamic optimizer: cost-based kernel selection
	// with just-in-time operand conversions (§III-C).
	DynOpt bool
	// Ctx, when non-nil, cancels the multiplication: the operator checks
	// it between phases and the workers check it between tile-task
	// batches, so a cancelled or deadline-exceeded run aborts promptly
	// without interrupting a tile multiplication mid-flight. The operator
	// returns ctx.Err() (context.Canceled or context.DeadlineExceeded)
	// and no result. A nil Ctx means the run cannot be cancelled.
	Ctx context.Context
	// Watchdog, when positive, bounds every tile task: a task running
	// longer marks its worker degraded and fails the multiplication
	// with a *sched.WatchdogError instead of blocking forever on a hung
	// kernel. Zero disables the watchdog.
	Watchdog time.Duration
	// Verify, when positive, runs that many Freivalds rounds over the
	// assembled result and fails the multiplication with a *VerifyError
	// (matching ErrVerifyFailed) when C ≠ A·B. The rounds' probes sweep A,
	// B and the result's sparse tiles together, two rounds per sweep, on
	// the workers; the result's dense tiles are probed by the row
	// bodies that wrote them, while they are in cache. The cost is
	// O(stored cells) — non-zeros of sparse tiles, every cell of dense
	// ones — per round. A wrong product escapes k rounds with probability
	// at most 2^-k. Zero disables verification.
	Verify int
	// WriteThreshold, when positive, replaces the water-level derivation
	// with a precomputed effective write threshold ρ_D^W. The water level
	// depends on the whole density map, so a shard of a matrix derives a
	// different threshold than the full matrix would; a distributed
	// coordinator computes the global value once (PlanWriteThreshold) and
	// ships it to every worker so sharded executions pick result-tile
	// representations — and therefore bytes — identically to a local run.
	// Zero keeps the local derivation.
	WriteThreshold float64
}

// ctxErr returns the cancellation state of the options' context.
func (o MultOptions) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// DefaultMultOptions enables the full ATMULT behavior.
func DefaultMultOptions() MultOptions {
	return MultOptions{Estimate: true, DynOpt: true}
}

// MultStats is the runtime breakdown the paper reports in Figs. 8b, 9c
// and 9d: the share of ATMULT time spent estimating densities and
// dynamically optimizing (including tile conversions) versus multiplying.
type MultStats struct {
	EstimateTime time.Duration // density estimation + water level
	OptimizeTime time.Duration // cost-model decisions (wall time, summed over tasks)
	ConvertTime  time.Duration // just-in-time operand conversions
	MultiplyTime time.Duration // kernel execution; sparse targets: the row pass, emit of every finished row included; dense targets: the row bodies — on a recycled buffer the clear of their rows first, then the kernels and the epilogue (the rows' non-zero count and, verifying, their probe sums)
	FinalizeTime time.Duration // sparse targets: the assembly of the finished rows into the result CSR
	VerifyTime   time.Duration // Freivalds result verification (opts.Verify): drawing the probes, the sweeps of B, A and the result's sparse tiles, and the comparison; the dense tiles' probe sums are in MultiplyTime
	WallTime     time.Duration // end-to-end operator time

	Conversions   int64 // number of operand windows converted
	Contributions int64 // tile-multiplication tasks executed
	TargetTiles   int64 // result tiles produced (before dropping empties)
	TasksStolen   int64 // tasks (a tile pair, or a row chunk of one) executed by a worker of another socket than their home
	ScratchBytes  int64 // process-wide persistent worker-scratch high-water mark, plus the sparse accumulator slot (recycle.go)

	// Kernel-choice counts for sparse×sparse→sparse contributions: how
	// many the cost model routed to the outer-product merge kernel vs.
	// Gustavson.
	OuterKernelCalls     int64
	GustavsonKernelCalls int64

	WriteThreshold float64 // effective ρ_D^W after the water level
	Numa           *numa.Stats
}

// OptimizeShare returns (optimize+convert)/wall — the quantity plotted in
// Fig. 8b/9c/9d. Per-task times are summed across workers, so the share is
// normalized by the summed busy time instead of wall time when the summed
// time is larger (multi-core runs).
func (s *MultStats) OptimizeShare() float64 {
	busy := s.OptimizeTime + s.ConvertTime + s.MultiplyTime + s.FinalizeTime
	denom := s.WallTime
	if busy > denom {
		denom = busy
	}
	if denom == 0 {
		return 0
	}
	return float64(s.OptimizeTime+s.ConvertTime) / float64(denom)
}

// EstimateShare returns estimate/wall, the density-estimation fraction.
func (s *MultStats) EstimateShare() float64 {
	if s.WallTime == 0 {
		return 0
	}
	return float64(s.EstimateTime) / float64(s.WallTime)
}

// Multiply executes C = A·B with the full ATMULT pipeline and default
// options.
func Multiply(a, b *ATMatrix, cfg Config) (*ATMatrix, *MultStats, error) {
	return MultiplyOpt(a, b, cfg, DefaultMultOptions())
}

// MultiplyOpt is Alg. 2: it estimates the result-density map, derives the
// effective write threshold with the water-level method, forms tile-row ×
// tile-col pairs — each pair producing one target tile C_{ti,tj} — and
// executes the pairs on the per-socket workers (a product with fewer pairs
// than cores cuts its pairs into row chunks, splitPairs).
// Every pair accumulates
// the referenced submatrix multiplications of the matching A and B tiles,
// with the dynamic optimizer converting operand windows just in time when
// the cost model predicts a cheaper kernel.
func MultiplyOpt(a, b *ATMatrix, cfg Config, opts MultOptions) (*ATMatrix, *MultStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if a.Cols != b.Rows {
		return nil, nil, fmt.Errorf("core: contraction mismatch: A is %d×%d, B is %d×%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.BAtomic != cfg.BAtomic || b.BAtomic != cfg.BAtomic {
		return nil, nil, fmt.Errorf("core: operand block size (%d, %d) does not match config b_atomic %d", a.BAtomic, b.BAtomic, cfg.BAtomic)
	}
	if err := opts.ctxErr(); err != nil {
		return nil, nil, err
	}
	wallStart := time.Now()
	stats := &MultStats{Numa: numa.NewStats(cfg.Topology)}

	// Density estimation and water level (Alg. 2 lines 2–3).
	var est *density.Map
	stats.WriteThreshold = 2 // > 1: everything sparse when estimation is off
	if opts.Estimate {
		t0 := time.Now()
		est = estimateProductDensity(a, b, cfg)
		stats.WriteThreshold = EffectiveWriteThreshold(cfg, est)
		stats.EstimateTime = time.Since(t0)
	}
	if opts.WriteThreshold > 0 {
		stats.WriteThreshold = opts.WriteThreshold
	}

	aRows, bCols := &a.index().rows, &b.index().cols
	rowBands, colBands := aRows.bands, bCols.bands
	c := newATMatrix(a.Rows, b.Cols, cfg.BAtomic)

	mc := &mulCtx{
		cfg: cfg, opts: opts, stats: stats, cache: newConvCache(),
		a: a, aRows: aRows, bCols: bCols,
		bWinsPerBand: b.colBandWindows(),
		// One result slot (tile + dense header) per pair; tasks fill them
		// in place, assembly compacts the produced ones. NNZ > 0 marks a
		// produced slot.
		tiles:  make([]Tile, len(rowBands)*len(colBands)),
		denses: make([]mat.Dense, len(rowBands)*len(colBands)),
		dirty:  make([]bool, len(rowBands)*len(colBands)),
	}

	// The pairs with work, row-major over the band grid; a pair is homed
	// with its A tile-row. Each target's representation is decided here,
	// once, from its *final* estimated density (Alg. 2 line 6). A dense
	// target's probe sums, when verifying, start after the rows of the dense
	// targets before it.
	ncb := len(colBands)
	tasks := make([]pairTask, 0, len(rowBands)*ncb)
	denseTargetRows := 0
	for ti, rb := range rowBands {
		if len(aRows.tilesOf(ti)) == 0 {
			continue // structurally zero target tile-row
		}
		for tj, cb := range colBands {
			if len(bCols.tilesOf(tj)) == 0 {
				continue
			}
			t := pairTask{idx: int32(ti*ncb + tj), pair: int32(len(tasks)), hi: int32(rb.Len())}
			if est != nil {
				t.estRho = regionDensity(est, rb.Lo, rb.Hi, cb.Lo, cb.Hi)
				t.dense = t.estRho >= stats.WriteThreshold
			}
			if t.dense {
				t.sums = int32(denseTargetRows)
				denseTargetRows += rb.Len()
			}
			tasks = append(tasks, t)
		}
	}
	tasks = mc.splitPairs(tasks)
	if err := opts.ctxErr(); err != nil {
		return nil, nil, err
	}
	// The check is set up before C exists: its probes are drawn and the
	// dense row bodies take their sums as they finish (finishRows).
	var checkSetup time.Duration
	if opts.Verify > 0 {
		t0 := time.Now()
		mc.check = newProductCheck(a, b, opts.Verify, verifySeq.Add(1), denseTargetRows)
		checkSetup = time.Since(t0)
	}
	// Chaos hook: an armed bitflip rule silently corrupts one result value,
	// modeling a wrong product handed back by a kernel — exactly what
	// Freivalds verification must catch. It lands in a dense row before the
	// row's sums are taken, or, when no dense row takes it, in the assembled
	// product.
	mc.flip.Store(faultinject.Bitflip("core.mult.result"))
	rs, runErr := RunHomed(opts.Ctx, cfg, opts.Watchdog, len(tasks),
		func(i int) int { return rowBands[int(tasks[i].idx)/ncb].Lo + int(tasks[i].lo) },
		func(team *sched.Team, i int) { mc.runTask(team, &tasks[i]) })
	stats.TasksStolen = rs.Stolen
	stats.ScratchBytes = scratchFootprint.Load() + accFree.bytes()
	// A cancelled run may have skipped arbitrary pairs; the partial slot
	// grid is not a valid product, so abort before assembly.
	if err := opts.ctxErr(); err != nil {
		return nil, nil, err
	}
	if runErr != nil {
		// A panicking tile task fails only this multiplication; annotate
		// the scheduler's error with the target-tile coordinates of the
		// pair it names. A row chunk's item is mapped back to its pair's
		// index, so the error names the same pair however it was cut.
		var tpe *sched.TaskPanicError
		if errors.As(runErr, &tpe) {
			t := tasks[tpe.Item]
			tpe.Item = t.pair
			ti, tj := int(t.idx)/ncb, int(t.idx)%ncb
			return nil, nil, fmt.Errorf("core: ATMULT task panic at target tile (%d,%d) [rows %d–%d × cols %d–%d]: %w",
				ti, tj, rowBands[ti].Lo, rowBands[ti].Hi, colBands[tj].Lo, colBands[tj].Hi, runErr)
		}
		return nil, nil, fmt.Errorf("core: ATMULT run failed: %w", runErr)
	}

	// Assemble the result AT MATRIX: every produced slot is copied out of
	// the (mostly empty) pair grid into a tile of its own, so the grid is
	// not pinned by the result — and so nothing that points at one tile
	// pins the rest. The second matters for memory, not for correctness: a
	// pointer left in a dead stack slot of a long-lived goroutine is live
	// to the collector when it scans a preempted frame conservatively, and
	// with all tiles in one backing array such a pointer kept a whole
	// dropped product (83 MB for G9·G9) alive through the next cycle,
	// doubling the heap goal (DESIGN.md §7). The tasks are in slot order; a
	// split pair's slot is taken with its first chunk. Only headers are
	// copied, so the rows a check took its sums from are the rows returned.
	produced := 0
	for i := range tasks {
		if tasks[i].lo == 0 && mc.tiles[tasks[i].idx].NNZ != 0 {
			produced++
		}
	}
	c.Tiles = make([]*Tile, 0, produced)
	var sumsAt []int32
	if mc.check.k > 0 {
		sumsAt = make([]int32, 0, produced)
	}
	for i := range tasks {
		pt := &tasks[i]
		if pt.lo != 0 || mc.tiles[pt.idx].NNZ == 0 {
			continue
		}
		t := mc.tiles[pt.idx]
		if t.Kind == mat.DenseKind {
			d := *t.D
			t.D = &d
		}
		c.Tiles = append(c.Tiles, &t)
		if sumsAt != nil {
			sumsAt = append(sumsAt, pt.sums)
		}
	}
	stats.TargetTiles = int64(produced)

	stats.OptimizeTime = time.Duration(mc.optNanos.Load())
	stats.ConvertTime = time.Duration(mc.convNanos.Load())
	stats.MultiplyTime = time.Duration(mc.mulNanos.Load())
	stats.FinalizeTime = time.Duration(mc.finNanos.Load())
	stats.Contributions = mc.contributions.Load()
	stats.Conversions = mc.conversions.Load()
	stats.OuterKernelCalls = mc.outerCalls.Load()
	stats.GustavsonKernelCalls = mc.gustavsonCalls.Load()

	if mc.flip.Load() {
		c.FlipOneBit()
	}
	if ck := &mc.check; ck.k > 0 {
		t0 := time.Now()
		ck.sums.off = sumsAt
		if err := ck.run(TeamSweeper(opts.Ctx, cfg, opts.Watchdog), a, b, c); err != nil {
			return nil, nil, err
		}
		stats.VerifyTime = checkSetup + time.Since(t0)
	}
	stats.WallTime = time.Since(wallStart)
	return c, stats, nil
}

// verifySeq seeds successive Freivalds checks: a deterministic sequence
// (reproducible runs) that still gives a retried job fresh probe vectors.
var verifySeq atomic.Int64

// mulCtx is the per-invocation state of one MultiplyOpt shared by every
// pair task: the band structure, the pre-resolved operand tiles, the result
// slot arenas and the time counters. Bundling it lets the scheduler run
// pairs through one shared function instead of a per-pair closure.
type mulCtx struct {
	cfg   Config
	opts  MultOptions
	stats *MultStats
	cache *convCache

	// aRows and bCols are A's row axis and B's column axis of the operands'
	// tile indexes: the bands and the tiles of each. A's column views and
	// B's windows (bWinsPerBand) come from the operands' own indexes.
	a            *ATMatrix
	aRows, bCols *bandAxis
	bWinsPerBand [][]kernels.CSRWin

	tiles  []Tile
	denses []mat.Dense
	// dirty marks, by slot, a dense target whose buffer came from the
	// pool holding an old product: its row bodies clear their rows first.
	dirty []bool
	// splits holds, by pair position, the state the row chunks of a split
	// pair share (splitPairs); nil unless some pair is split.
	splits []splitPair
	// check is the product's Freivalds check (k = opts.Verify), whose sums
	// the dense row bodies fill; flip is an armed chaos bitflip not yet
	// planted.
	check productCheck
	flip  atomic.Bool

	optNanos, convNanos, mulNanos, finNanos atomic.Int64
	// The MultStats counters every pair task bumps; copied into stats once
	// the run has returned.
	contributions, conversions, outerCalls, gustavsonCalls atomic.Int64
}

// pairTask is one task of a product: a tile pair, or one row chunk of a
// pair that splitPairs cut across the workers.
type pairTask struct {
	idx  int32 // the pair's result slot, row-major over the band grid
	pair int32 // the pair's position in the pair list
	// lo and hi bound the task's target rows: the whole tile-row, or chunk
	// number chunk of it when split is set (the chunks share
	// mulCtx.splits[pair]; a sparse target's chunk writes the segment of
	// that number).
	lo, hi int32
	chunk  int32
	split  bool
	// dense and estRho are the target's representation and estimated
	// density, decided once when the pair list is built.
	dense bool
	// sums is where a dense target's rows start in the check's tile sums.
	sums   int32
	estRho float64
}

// splitPair is the state the row chunks of one split pair share: the first
// chunk to arrive plans the pair, every chunk runs its rows, and the last
// to finish them (the countdown in left) fills the result slot.
type splitPair struct {
	plan     sync.Once
	contribs []contribution
	// arena holds the plan's ad hoc window conversions. The planning
	// worker's arena is reset at that worker's next task, which may start
	// while other chunks still read them.
	arena  kernels.Scratch
	chunks int32
	left   atomic.Int32
	nnz    atomic.Int64
	// A sparse target's chunks each pass their rows into their own segment
	// of acc over the pair's terms; the plan sets both.
	acc   *kernels.SpAcc
	terms []kernels.Term
}

// splitPairs cuts each pair into ⌈TotalCores / pairs⌉ row chunks when the
// product has fewer pairs than cores. A whole pair runs on one worker, so a
// one-pair product would otherwise keep one core busy while the others
// idle; the chunks are how the rows of one tile are shared (§III-F). A
// sparse target's chunks share one accumulator, kept warm in a slot
// (recycle.go), each writing a segment of its own; every row is summed
// alone, in term order, so its bits do not depend on the cut. A product
// with enough pairs, or none, is returned as it is.
func (mc *mulCtx) splitPairs(pairs []pairTask) []pairTask {
	cores := mc.cfg.Topology.TotalCores()
	if len(pairs) == 0 || len(pairs) >= cores {
		return pairs
	}
	per := int32((cores + len(pairs) - 1) / len(pairs))
	mc.splits = make([]splitPair, len(pairs))
	tasks := make([]pairTask, 0, len(pairs)*int(per))
	for _, p := range pairs {
		c := min(per, p.hi)
		if c < 2 {
			tasks = append(tasks, p)
			continue
		}
		p.split = true
		sp := &mc.splits[p.pair]
		sp.chunks = c
		sp.left.Store(c)
		m := int64(p.hi)
		for k := range c {
			p.chunk = k
			p.lo, p.hi = int32(int64(k)*m/int64(c)), int32(int64(k+1)*m/int64(c))
			tasks = append(tasks, p)
		}
	}
	return tasks
}

// runTask runs one task. A whole pair is planned, multiplied and finished
// in one go on the worker's scratch; a row chunk of a split pair runs its
// rows and leaves the plan to the first chunk and the finish to the last.
func (mc *mulCtx) runTask(team *sched.Team, t *pairTask) {
	ws := stateFor(team, mc.cfg.EphemeralWorkers)
	ws.scratch.BeginTask()
	defer func() {
		ws.releaseContribs()
		ws.syncFootprint()
	}()
	if !t.split {
		ws.contribs = mc.plan(team, t, ws.contribs[:0], ws.scratch)
		if len(ws.contribs) == 0 {
			return
		}
		if t.dense {
			mc.finish(team, t, mc.denseRows(ws, t, ws.contribs), nil)
		} else {
			csr := mc.sparseRows(ws, ws.contribs)
			mc.finish(team, t, csr.NNZ(), csr)
		}
		return
	}
	sp := &mc.splits[t.pair]
	// A chunk whose plan panicked finds no contributions and runs nothing;
	// the panic has already failed the run.
	sp.plan.Do(func() {
		sp.contribs = mc.plan(team, t, nil, &sp.arena)
		if !t.dense && len(sp.contribs) != 0 {
			sp.terms = make([]kernels.Term, len(sp.contribs))
			for i := range sp.contribs {
				sp.terms[i] = sp.contribs[i].Term
			}
			m, n := sp.contribs[0].mRows, sp.contribs[0].nCols
			if mc.cfg.EphemeralWorkers {
				sp.acc = kernels.NewSpAcc(m, n)
			} else {
				sp.acc = accFree.take(m, n)
			}
			sp.acc.Split(int(sp.chunks))
		}
	})
	switch {
	case len(sp.contribs) == 0:
	case t.dense:
		sp.nnz.Add(mc.denseRows(ws, t, sp.contribs))
	default:
		t0 := time.Now()
		sp.acc.Pass(int(t.chunk), int(t.lo), int(t.hi), sp.terms, ws.scratch)
		mc.mulNanos.Add(time.Since(t0).Nanoseconds())
	}
	if sp.left.Add(-1) != 0 {
		return
	}
	if sp.acc == nil {
		mc.finish(team, t, sp.nnz.Load(), nil)
		return
	}
	csr := mc.toCSR(sp.acc)
	if !mc.cfg.EphemeralWorkers {
		accFree.give(sp.acc)
	}
	mc.finish(team, t, csr.NNZ(), csr)
}

// contribution is one referenced submatrix multiplication feeding a target
// tile: a window of an A tile times a window of a B tile.
type contribution struct {
	aTile, bTile *Tile
	// aAt is the A tile's place in its row band's tiles.
	aAt int
	// Tile-local window bounds. The A window spans rows
	// [aR0, aR0+m) × cols [aC0, aC0+k); the B window rows
	// [bR0, bR0+k) × cols [bC0, bC0+n), where m and n are the target
	// tile dims.
	aR0, aC0 int
	bR0, bC0 int
	k        int
	// mRows and nCols are the target tile dimensions (A window height,
	// B window width).
	mRows, nCols int

	// bWin caches the pre-indexed full-height window of the B tile
	// against the column band (valid when bTile is sparse).
	bWin kernels.CSRWin

	// Term holds the resolved operands after optimization: for each of A
	// and B either the sparse window or the dense one is set. Dense
	// operands are compact copies or shared windows, held as value headers
	// so resolving a window never heap-allocates. Term.Outer routes a
	// sparse×sparse contribution into a sparse target to the
	// outer-product merge kernel instead of Gustavson — decided once per
	// contribution by the cost model.
	kernels.Term
	aKind mat.Kind
	bKind mat.Kind
	// aView, when set, holds A's row band by column, for SpSpDCols.
	aView *kernels.ColView
}

// plan is the first step of computing one target tile C_{ti,tj} (Alg. 2
// lines 6–10): it appends the pair's contributions to cts, decides each
// one's kernel with the whole pair's dimensions and estimated density,
// resolves its operands — converting windows just in time, ad hoc ones into
// arena — records the NUMA reads and, for a dense target, takes the tile's
// buffer from the dense result pool (recycle.go). It returns the
// contributions; none means the pair produces nothing. Every transient
// buffer comes from the caller, so the steady-state allocation cost of a
// pair is only the result payload the pool cannot supply.
func (mc *mulCtx) plan(team *sched.Team, t *pairTask, cts []contribution, arena *kernels.Scratch) []contribution {
	cfg, opts, stats := mc.cfg, mc.opts, mc.stats
	ti, tj := int(t.idx)/len(mc.bCols.bands), int(t.idx)%len(mc.bCols.bands)
	rb, cb := mc.aRows.bands[ti], mc.bCols.bands[tj]
	bWins := mc.bWinsPerBand[tj]
	m, n := rb.Len(), cb.Len()

	// Collect the referenced submatrix multiplications with matching
	// contraction ranges (CALCULATEREFWINDOW, Alg. 2 line 8).
	for ak, ta := range mc.aRows.tilesOf(ti) {
		ak0, ak1 := ta.Col0, ta.Col0+ta.Cols
		for bi, tb := range mc.bCols.tilesOf(tj) {
			bk0, bk1 := tb.Row0, tb.Row0+tb.Rows
			k0, k1 := max(ak0, bk0), min(ak1, bk1)
			if k1 <= k0 {
				continue
			}
			cts = append(cts, contribution{
				aTile: ta, bTile: tb, bWin: bWins[bi], aAt: ak,
				aR0: rb.Lo - ta.Row0, aC0: k0 - ta.Col0,
				bR0: k0 - tb.Row0, bC0: cb.Lo - tb.Col0,
				k: k1 - k0, mRows: m, nCols: n,
			})
		}
	}
	if len(cts) == 0 {
		return cts
	}
	mc.contributions.Add(int64(len(cts)))

	targetKind := mat.Sparse
	if t.dense {
		targetKind = mat.DenseKind
	}
	// Dynamic optimizer (OPTIMIZE, Alg. 2 line 9): pick the operand
	// representations per contribution, converting windows just in time.
	for i := range cts {
		ct := &cts[i]
		t0 := time.Now()
		kindA, kindB := ct.aTile.Kind, ct.bTile.Kind
		rhoA := windowDensityApprox(ct.aTile)
		rhoB := windowDensityApprox(ct.bTile)
		if opts.DynOpt {
			plan := cfg.Cost.ChooseKernel(kindA, kindB, targetKind, m, ct.k, n, rhoA, rhoB, t.estRho)
			kindA, kindB = plan.KindA, plan.KindB
		}
		// Algorithm choice for sparse×sparse→sparse: outer-product merge
		// vs. Gustavson, per the cost model's crossover. Decided here, once
		// per contribution.
		if targetKind == mat.Sparse && kindA == mat.Sparse && kindB == mat.Sparse {
			ct.Outer = cfg.Cost.PreferOuter(m, ct.k, n, runDensity(ct), rhoB)
			if ct.Outer {
				mc.outerCalls.Add(1)
			} else {
				mc.gustavsonCalls.Add(1)
			}
		}
		mc.optNanos.Add(time.Since(t0).Nanoseconds())
		ct.aKind, ct.bKind = kindA, kindB

		mc.resolveOperand(ct, true, kindA, arena)
		mc.resolveOperand(ct, false, kindB, arena)
		// A sparse A tile feeding a dense target with a sparse B is read
		// through its row band's column view, which A keeps; building one is
		// conversion time, not a conversion. (No dense tile is ever chosen
		// sparse, so every sparse×sparse contribution into a dense target
		// has one.)
		if targetKind == mat.DenseKind && kindA == mat.Sparse && kindB == mat.Sparse {
			t0 := time.Now()
			var built bool
			if ct.aView, built = mc.a.rowBandView(ti, ct.aAt); built {
				mc.convNanos.Add(time.Since(t0).Nanoseconds())
			}
		}

		// Simulated NUMA accounting: the worker's socket reads both operand
		// windows from their home nodes.
		stats.Numa.RecordAccess(team.Socket, ct.aTile.Home, windowBytes(ct.aTile, m, ct.k))
		stats.Numa.RecordAccess(team.Socket, ct.bTile.Home, windowBytes(ct.bTile, ct.k, n))
	}
	if t.dense {
		buf, dirty := takeDense(m * n)
		mc.denses[t.idx] = mat.Dense{Rows: m, Cols: n, Stride: n, Data: buf}
		mc.dirty[t.idx] = dirty
	}
	return cts
}

// denseRows runs the contributions over the task's target rows of the
// pair's dense tile on the worker's own scratch, which holds DSpD's column
// form of B, then finishes them (finishRows), and returns the non-zeros of
// those rows.
func (mc *mulCtx) denseRows(ws *workerState, t *pairTask, cts []contribution) int64 {
	t0 := time.Now()
	d, lo, hi := &mc.denses[t.idx], int(t.lo), int(t.hi)
	cw := d.View(lo, hi, 0, d.Cols)
	if mc.dirty[t.idx] {
		// A recycled target: these rows, and only these, are cleared just
		// before their first contribution. The view is full width, so its
		// Data is exactly its rows.
		clear(cw.Data)
	}
	for i := range cts {
		runDenseTarget(&cw, &cts[i], lo, hi, ws.scratch)
	}
	nnz := mc.finishRows(t, &cw, lo)
	mc.mulNanos.Add(time.Since(t0).Nanoseconds())
	return nnz
}

// finishRows is the epilogue of a dense target's row body, on rows [lo,
// lo+cw.Rows) of the tile once the task's last contribution is in them.
// Nothing writes those rows again — assembly copies headers — so what it
// reads is what the product returns. It plants an armed chaos flip, takes
// the rows' probe sums when the product is verified, and returns their
// non-zeros.
//
//atlint:hotpath
func (mc *mulCtx) finishRows(t *pairTask, cw *mat.Dense, lo int) int64 {
	if mc.flip.Load() {
		mc.plantFlip(cw)
	}
	ck, c0 := &mc.check, mc.bCols.bands[int(t.idx)%len(mc.bCols.bands)].Lo
	var nnz int64
	for i := 0; i < cw.Rows; i++ {
		row := cw.Data[i*cw.Stride : i*cw.Stride+cw.Cols]
		if ck.k > 0 {
			nnz += ck.takeSums(row, c0, int(t.sums)+lo+i)
		} else {
			nnz += kernels.NonZeros(row)
		}
	}
	return nnz
}

// plantFlip flips a bit of the first non-zero of cw's rows, unless another
// row body planted the armed flip first.
func (mc *mulCtx) plantFlip(cw *mat.Dense) {
	for i := 0; i < cw.Rows; i++ {
		row := cw.RowSlice(i)
		if j := slices.IndexFunc(row, func(v float64) bool { return v != 0 }); j >= 0 {
			if mc.flip.CompareAndSwap(true, false) {
				row[j] = flipped(row[j])
			}
			return
		}
	}
}

// sparseRows finishes every row of a sparse target in one row pass, each
// row summed over all contributions and written once, then assembles the
// finished rows into the result CSR.
func (mc *mulCtx) sparseRows(ws *workerState, cts []contribution) *mat.CSR {
	m, n := cts[0].mRows, cts[0].nCols
	for i := range cts {
		ws.terms = append(ws.terms, cts[i].Term)
	}
	acc := ws.scratch.Acc(m, n)
	acc.Split(1)
	t0 := time.Now()
	acc.Pass(0, 0, m, ws.terms, ws.scratch)
	mc.mulNanos.Add(time.Since(t0).Nanoseconds())
	return mc.toCSR(acc)
}

// toCSR assembles a sparse target's finished rows into the result CSR.
func (mc *mulCtx) toCSR(acc *kernels.SpAcc) *mat.CSR {
	t0 := time.Now()
	csr := acc.ToCSR()
	mc.finNanos.Add(time.Since(t0).Nanoseconds())
	return csr
}

// finish fills the pair's result slot with a tile of nnz non-zeros: the
// dense slot's buffer, or sp for a sparse target. An empty tile is dropped,
// its dense buffer straight back to the pool.
func (mc *mulCtx) finish(team *sched.Team, t *pairTask, nnz int64, sp *mat.CSR) {
	d := &mc.denses[t.idx]
	if nnz == 0 {
		if d.Data != nil {
			giveDense(d.Data)
		}
		d.Data = nil
		return
	}
	ti, tj := int(t.idx)/len(mc.bCols.bands), int(t.idx)%len(mc.bCols.bands)
	rb, cb := mc.aRows.bands[ti], mc.bCols.bands[tj]
	out := &mc.tiles[t.idx]
	*out = Tile{Row0: rb.Lo, Col0: cb.Lo, Rows: rb.Len(), Cols: cb.Len(), Kind: mat.DenseKind, D: d, NNZ: nnz}
	if sp != nil {
		out.Kind, out.D, out.Sp = mat.Sparse, nil, sp
	}
	// The tile is homed where its tile-row is placed, not where it was
	// computed: Home is serialized, and which worker ran the pair depends on
	// timing. The allocation is charged to the socket that made it, so a
	// pair run away from home shows up in the NUMA statistics instead.
	out.Home = mc.cfg.HomeOfRow(rb.Lo)
	mc.stats.Numa.RecordAlloc(team.Socket, out.Bytes())
}

// resolveOperand fills the kernel operand fields of a contribution for the
// requested representation, converting a sparse window to dense when the
// optimizer asks for it (costmodel.ChooseKernel never proposes the reverse).
// Ad-hoc window conversions land in the plan's arena (valid until the pair
// is done); full-tile dense conversions go through the shared cache
// instead, because they outlive the pair.
func (mc *mulCtx) resolveOperand(ct *contribution, isA bool, want mat.Kind, scr *kernels.Scratch) {
	var tile *Tile
	var r0, c0, rows, cols int
	if isA {
		tile = ct.aTile
		r0, c0 = ct.aR0, ct.aC0
		rows, cols = ct.mRows, ct.k
	} else {
		tile = ct.bTile
		r0, c0 = ct.bR0, ct.bC0
		rows, cols = ct.k, ct.nCols
	}
	if tile.Kind == want {
		if !isA && want == mat.Sparse {
			// Use the pre-indexed (tile × column band) window, narrowed
			// to the contraction range.
			ct.B = ct.bWin.RowSlice(r0, r0+rows)
			return
		}
		sp, d := tile.window(r0, r0+rows, c0, c0+cols)
		if isA {
			ct.A, ct.AD = sp, d
		} else {
			ct.B, ct.BD = sp, d
		}
		return
	}
	// sparse → dense conversion. A full-tile conversion is cached and shared
	// across all pairs touching the tile (the same tile recurs once per
	// target band); partial windows are converted ad hoc.
	t0 := time.Now()
	var d *mat.Dense
	if r0 == 0 && c0 == 0 && rows == tile.Rows && cols == tile.Cols {
		var hit bool
		d, hit = mc.cache.dense(tile)
		if hit {
			// Cache hits cost nothing; don't count a conversion.
			if isA {
				ct.AD = *d
			} else {
				ct.BD = *d
			}
			return
		}
	} else {
		win := kernels.CSRWin{M: tile.Sp, Row0: r0, Col0: c0, Rows: rows, Cols: cols}
		d = win.ToDenseScratch(scr)
	}
	if isA {
		ct.AD = *d
	} else {
		ct.BD = *d
	}
	mc.convNanos.Add(time.Since(t0).Nanoseconds())
	mc.conversions.Add(1)
}

// convCache memoizes, for one ATMULT invocation, the full-tile
// sparse→dense conversions: they stay per product, because the cost model
// prices them. Each entry owns a sync.Once, so concurrent workers neither
// serialize on a global lock during the (potentially large) build nor
// duplicate it and throw one copy away — the map mutex is held only for
// the entry lookup. Very large tiles are not converted through the cache,
// to bound the extra memory.
type convCache struct {
	mu      sync.Mutex
	entries map[*Tile]*convEntry
	maxTile int64
}

// convEntry is the per-tile shard: the first caller through the Once runs
// the build, everyone else blocks only on this entry.
type convEntry struct {
	once sync.Once
	d    *mat.Dense
}

func newConvCache() *convCache {
	return &convCache{entries: make(map[*Tile]*convEntry), maxTile: 64 << 20}
}

// dense returns the dense form of a sparse tile and whether it was cached.
func (c *convCache) dense(t *Tile) (*mat.Dense, bool) {
	if mat.DenseBytes(t.Rows, t.Cols) > c.maxTile {
		return t.Sp.ToDense(), false
	}
	c.mu.Lock()
	e := c.entries[t]
	if e == nil {
		e = &convEntry{}
		c.entries[t] = e
	}
	c.mu.Unlock()
	hit := true
	e.once.Do(func() {
		e.d = t.Sp.ToDense()
		hit = false
	})
	return e.d, hit
}

// regionDensity aggregates the estimated map over a pixel region as the
// area-weighted mean block density.
func regionDensity(est *density.Map, r0, r1, c0, c1 int) float64 {
	b := est.Block
	var wsum, asum float64
	for i := r0 / b; i*b < r1 && i < est.BR; i++ {
		for j := c0 / b; j*b < c1 && j < est.BC; j++ {
			// Clip the cell to the region.
			h, w := est.CellDims(i, j)
			rLo, rHi := max(i*b, r0), min(i*b+h, r1)
			cLo, cHi := max(j*b, c0), min(j*b+w, c1)
			if rHi <= rLo || cHi <= cLo {
				continue
			}
			area := float64(rHi-rLo) * float64(cHi-cLo)
			wsum += est.At(i, j) * area
			asum += area
		}
	}
	if asum == 0 {
		return 0
	}
	return wsum / asum
}

// windowDensityApprox approximates a window's density by its tile's
// overall density — the within-tile uniformity assumption of the atomic
// block granularity.
func windowDensityApprox(t *Tile) float64 { return t.Density() }

// runDensity is the A-window density the outer-product crossover is asked
// about. The merge kernel's cost per partial product grows with the number
// of runs its output row merges, and a partial product lands in row i in
// proportion to that row's length, so the run count that matters is the one
// an average partial product sees, Σl²/Σl − 1 over the window's rows — equal
// to the mean row length for uniformly random rows, far above it on skewed
// (R-MAT) tiles whose few long rows carry most of the work. The mean is the
// floor: rows more regular than random are no cheaper to merge than their
// length. Row lengths are taken over the tile's full width (RowPtr alone)
// and scaled by the caller's k, the within-tile uniformity assumption.
func runDensity(ct *contribution) float64 {
	rp := ct.aTile.Sp.RowPtr[ct.aR0 : ct.aR0+ct.mRows+1]
	var sum, sumSq float64
	for i := 0; i < ct.mRows; i++ {
		l := float64(rp[i+1] - rp[i])
		sum += l
		sumSq += l * l
	}
	if sum == 0 {
		return 0
	}
	runs := max(sum/float64(ct.mRows), sumSq/sum-1)
	return runs / float64(ct.aTile.Cols)
}

// windowBytes estimates the bytes touched when reading an h×w window of a
// tile.
func windowBytes(t *Tile, h, w int) int64 {
	if t.Kind == mat.DenseKind {
		return mat.DenseBytes(h, w)
	}
	return int64(float64(h) * float64(w) * t.Density() * mat.SizeSparse)
}

// runDenseTarget executes one contribution into a dense target row slice
// [lo, hi) of the target tile, on the arena of the worker running it.
//
//atlint:hotpath
func runDenseTarget(cw *mat.Dense, ct *contribution, lo, hi int, scr *kernels.Scratch) {
	aSp, aD := sliceA(ct, lo, hi)
	switch {
	case ct.aView != nil:
		kernels.SpSpDCols(cw, ct.aView, lo, ct.aC0, ct.B)
	case ct.aKind == mat.Sparse && ct.bKind == mat.DenseKind:
		kernels.SpDD(cw, aSp, &ct.BD)
	case ct.aKind == mat.DenseKind && ct.bKind == mat.Sparse:
		kernels.DSpDScratch(cw, &aD, ct.B, scr)
	default:
		kernels.DDD(cw, &aD, &ct.BD)
	}
}

// cells returns the number of grid cells of an m×n matrix at a block size.
func cells(m, n, block int) int {
	return ((m + block - 1) / block) * ((n + block - 1) / block)
}

// estimateProductDensity builds the product density map at the coarsened
// estimation grid: over full maps the estimator costs
// O(gridRows·gridK·gridCols) whatever the nnz, and even its scans of an
// almost empty grid at b_atomic resolution would weigh on hypersparse
// multiplications of very high-dimension operands (the R9 effect of
// §IV-D), so the grid doubles until it fits the cell cap.
func estimateProductDensity(a, b *ATMatrix, cfg Config) *density.Map {
	const gridCellCap = 1 << 13
	estBlock := cfg.BAtomic
	for cells(a.Rows, b.Cols, estBlock) > gridCellCap ||
		cells(a.Rows, a.Cols, estBlock) > gridCellCap ||
		cells(b.Rows, b.Cols, estBlock) > gridCellCap {
		estBlock *= 2
	}
	return density.EstimateProduct(a.DensityMapAt(estBlock), b.DensityMapAt(estBlock))
}

// PlanWriteThreshold derives the effective write threshold of C = A·B the
// way MultiplyOpt would, without running the multiplication. A distributed
// coordinator calls this once on the full operands and ships the value to
// workers via MultOptions.WriteThreshold, so every shard classifies its
// result tiles against the global water level rather than a shard-local
// one.
func PlanWriteThreshold(a, b *ATMatrix, cfg Config) float64 {
	return EffectiveWriteThreshold(cfg, estimateProductDensity(a, b, cfg))
}

// sliceA narrows the A operand of a contribution to target rows [lo, hi).
// Both narrow results are value headers: no heap allocation per task row.
//
//atlint:hotpath
func sliceA(ct *contribution, lo, hi int) (kernels.CSRWin, mat.Dense) {
	if ct.aKind == mat.Sparse {
		w := ct.A
		return kernels.CSRWin{M: w.M, Row0: w.Row0 + lo, Col0: w.Col0, Rows: hi - lo, Cols: w.Cols}, mat.Dense{}
	}
	return kernels.CSRWin{}, ct.AD.View(lo, hi, 0, ct.AD.Cols)
}
