package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
	// it between phases and the worker teams check it between tile-task
	// batches, so a cancelled or deadline-exceeded run aborts promptly
	// without interrupting a tile multiplication mid-flight. The operator
	// returns ctx.Err() (context.Canceled or context.DeadlineExceeded)
	// and no result. A nil Ctx means the run cannot be cancelled.
	Ctx context.Context
	// Watchdog, when positive, bounds every tile task: a task running
	// longer marks its worker team degraded and fails the multiplication
	// with a *sched.WatchdogError instead of blocking forever on a hung
	// kernel. Zero disables the watchdog.
	Watchdog time.Duration
	// Verify, when positive, runs that many Freivalds rounds over the
	// assembled result and fails the multiplication with a *VerifyError
	// (matching ErrVerifyFailed) when C ≠ A·B. The rounds' probes sweep A,
	// B and the result together, two rounds per sweep, on the worker teams;
	// the cost is O(stored cells) — non-zeros of sparse tiles, every cell
	// of dense ones — per round. A wrong product escapes k rounds with
	// probability at most 2^-k. Zero disables verification.
	Verify int
	// SpGEMM selects the sparse×sparse→sparse algorithm. The default
	// (SpGEMMAuto) asks the cost model per contribution: hypersparse
	// operand windows (expected partial-product runs per output row ≤ the
	// calibrated crossover) go to the outer-product multiway-merge kernel,
	// everything else to Gustavson. The forced settings exist for
	// benchmarks and ablations.
	SpGEMM SpGEMMPolicy
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

// SpGEMMPolicy selects the algorithm used for sparse×sparse→sparse tile
// contributions.
type SpGEMMPolicy int

const (
	// SpGEMMAuto routes each contribution by the cost model's
	// outer-product crossover (costmodel.PreferOuter).
	SpGEMMAuto SpGEMMPolicy = iota
	// SpGEMMGustavson forces the row-form SPA kernel (SpSpSp).
	SpGEMMGustavson
	// SpGEMMOuter forces the outer-product multiway-merge kernel
	// (OuterSpSp).
	SpGEMMOuter
)

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
	MultiplyTime time.Duration // kernel execution (sparse targets: summed over the fan-out's row chunks)
	FinalizeTime time.Duration // accumulated contributions → CSR: per-chunk combine (summed likewise) + leader assembly
	VerifyTime   time.Duration // Freivalds result verification (opts.Verify)
	WallTime     time.Duration // end-to-end operator time

	Conversions   int64 // number of operand windows converted
	Contributions int64 // tile-multiplication tasks executed
	TargetTiles   int64 // result tiles produced (before dropping empties)
	TasksStolen   int64 // tasks executed by a team other than their home socket's
	ScratchBytes  int64 // process-wide persistent worker-scratch high-water mark

	// Kernel-choice counts for sparse×sparse→sparse contributions: how
	// many were routed to the outer-product merge kernel vs. Gustavson
	// (by the cost model under SpGEMMAuto, or by the forced policy).
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
// executes the pairs on per-socket worker teams. Every pair accumulates
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

	rowBands := a.RowBands()
	colBands := b.ColBands()
	c := newATMatrix(a.Rows, b.Cols, cfg.BAtomic)

	// Pre-resolve the contributing tiles per band. The flat grouping costs
	// a handful of allocations regardless of band count, unlike per-band
	// map-and-append (which used to dominate steady-state allocations for
	// finely banded operands).
	aTilesPerBand := groupTilesByBand(a.Tiles, rowBands, rowSpan)
	bTilesPerBand := groupTilesByBand(b.Tiles, colBands, colSpan)

	// Pre-index the sparse B tiles against each column band once:
	// Gustavson revisits B rows per contributing A element, and the same
	// (tile, band) window recurs in every row-band pair, so the
	// referenced-window column spans are computed one time here and
	// row-sliced per contribution. All spans share one backing array.
	bWinsPerBand := indexColBandWindows(bTilesPerBand, colBands)

	mc := &mulCtx{
		cfg: cfg, opts: opts, est: est, stats: stats, cache: newConvCache(),
		rowBands: rowBands, colBands: colBands,
		aTilesPerBand: aTilesPerBand, bTilesPerBand: bTilesPerBand,
		bWinsPerBand: bWinsPerBand,
		// One result slot (tile + dense header) per pair; tasks fill them
		// in place, assembly compacts the produced ones. NNZ > 0 marks a
		// produced slot.
		tiles:  make([]Tile, len(rowBands)*len(colBands)),
		denses: make([]mat.Dense, len(rowBands)*len(colBands)),
	}

	// The pairs with work, row-major over the band grid; a pair is homed
	// with its A tile-row.
	ncb := len(colBands)
	pairs := make([]int32, 0, len(rowBands)*ncb)
	for ti := range rowBands {
		if len(aTilesPerBand[ti]) == 0 {
			continue // structurally zero target tile-row
		}
		for tj := range colBands {
			if len(bTilesPerBand[tj]) != 0 {
				pairs = append(pairs, int32(ti*ncb+tj))
			}
		}
	}
	if err := opts.ctxErr(); err != nil {
		return nil, nil, err
	}
	rs, runErr := RunHomed(opts.Ctx, cfg, opts.Watchdog, len(pairs),
		func(i int) int { return rowBands[int(pairs[i])/ncb].Lo },
		func(team *sched.Team, i int) { mc.runPair(team, pairs[i]) })
	stats.TasksStolen = rs.Stolen
	stats.ScratchBytes = scratchFootprint.Load()
	// A cancelled run may have skipped arbitrary pairs; the partial slot
	// grid is not a valid product, so abort before assembly.
	if err := opts.ctxErr(); err != nil {
		return nil, nil, err
	}
	if runErr != nil {
		// A panicking tile task fails only this multiplication; annotate
		// the scheduler's error with the target-tile coordinates of the
		// pair it names.
		var tpe *sched.TaskPanicError
		if errors.As(runErr, &tpe) {
			ti, tj := int(pairs[tpe.Item])/ncb, int(pairs[tpe.Item])%ncb
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
	// doubling the heap goal (DESIGN.md §7).
	produced := 0
	for i := range mc.tiles {
		if mc.tiles[i].NNZ == 0 {
			continue
		}
		t := mc.tiles[i]
		if t.Kind == mat.DenseKind {
			d := *t.D
			t.D = &d
		}
		c.addTile(&t)
		produced++
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

	// Chaos hook: an armed bitflip rule silently corrupts one result value
	// at the accumulation boundary, modeling a wrong product handed back by
	// a kernel — exactly what Freivalds verification must catch.
	if faultinject.Bitflip("core.mult.result") {
		c.FlipOneBit()
	}
	if opts.Verify > 0 {
		t0 := time.Now()
		if err := VerifyProductOn(TeamSweeper(opts.Ctx, cfg, opts.Watchdog), a, b, c, opts.Verify, verifySeq.Add(1)); err != nil {
			return nil, nil, err
		}
		stats.VerifyTime = time.Since(t0)
	}
	stats.WallTime = time.Since(wallStart)
	return c, stats, nil
}

// verifySeq seeds successive Freivalds checks: a deterministic sequence
// (reproducible runs) that still gives a retried job fresh probe vectors.
var verifySeq atomic.Int64

// rowSpan and colSpan are the axis accessors of groupTilesByBand.
func rowSpan(t *Tile) (lo, hi int) { return t.Row0, t.Row0 + t.Rows }
func colSpan(t *Tile) (lo, hi int) { return t.Col0, t.Col0 + t.Cols }

// groupTilesByBand buckets tiles into the bands they span along one axis.
// Bands are induced by tile cuts, so every tile covers a contiguous run of
// bands; the buckets are subslices of one flat backing array built with a
// counting pass.
func groupTilesByBand(tiles []*Tile, bands []Band, span func(*Tile) (lo, hi int)) [][]*Tile {
	bandRange := func(t *Tile) (int, int) {
		lo, hi := span(t)
		first := sort.Search(len(bands), func(i int) bool { return bands[i].Lo >= lo })
		last := first
		for last < len(bands) && bands[last].Lo < hi {
			last++
		}
		return first, last
	}
	offs := make([]int32, len(bands)+1)
	for _, t := range tiles {
		f, l := bandRange(t)
		for i := f; i < l; i++ {
			offs[i+1]++
		}
	}
	for i := 0; i < len(bands); i++ {
		offs[i+1] += offs[i]
	}
	flat := make([]*Tile, offs[len(bands)])
	cur := make([]int32, len(bands))
	copy(cur, offs[:len(bands)])
	for _, t := range tiles {
		f, l := bandRange(t)
		for i := f; i < l; i++ {
			flat[cur[i]] = t
			cur[i]++
		}
	}
	out := make([][]*Tile, len(bands))
	for i := range bands {
		out[i] = flat[offs[i]:offs[i+1]]
	}
	return out
}

// indexColBandWindows builds the pre-indexed (sparse tile × column band)
// windows, carving every window's row spans from a single backing array.
func indexColBandWindows(tilesPerBand [][]*Tile, bands []Band) [][]kernels.CSRWin {
	total := 0
	for _, tiles := range tilesPerBand {
		total += len(tiles)
	}
	flat := make([]kernels.CSRWin, total)
	out := make([][]kernels.CSRWin, len(bands))
	spanRows := 0
	pos := 0
	for j, tiles := range tilesPerBand {
		wins := flat[pos : pos+len(tiles) : pos+len(tiles)]
		pos += len(tiles)
		for ti, tile := range tiles {
			if tile.Kind != mat.Sparse {
				continue
			}
			w := kernels.CSRWin{M: tile.Sp, Col0: bands[j].Lo - tile.Col0, Rows: tile.Rows, Cols: bands[j].Len()}
			if w.NeedsIndex() {
				spanRows += tile.Rows
			}
			wins[ti] = w
		}
		out[j] = wins
	}
	buf := make([]int64, 2*spanRows)
	for _, wins := range out {
		for ti := range wins {
			if wins[ti].M != nil && wins[ti].NeedsIndex() {
				buf = wins[ti].BuildIndexIn(buf)
			}
		}
	}
	return out
}

// mulCtx is the per-invocation state of one MultiplyOpt shared by every
// pair task: the band structure, the pre-resolved operand tiles, the result
// slot arenas and the time counters. Bundling it lets the scheduler run
// pairs through one shared function instead of a per-pair closure.
type mulCtx struct {
	cfg   Config
	opts  MultOptions
	est   *density.Map
	stats *MultStats
	cache *convCache

	rowBands, colBands           []Band
	aTilesPerBand, bTilesPerBand [][]*Tile
	bWinsPerBand                 [][]kernels.CSRWin

	tiles  []Tile
	denses []mat.Dense

	optNanos, convNanos, mulNanos, finNanos atomic.Int64
	// The MultStats counters every pair task bumps; copied into stats once
	// the run has returned.
	contributions, conversions, outerCalls, gustavsonCalls atomic.Int64
}

// runPair dispatches one pair id (row-major over the band grid) to
// multiplyPair with its slot pointers.
func (mc *mulCtx) runPair(team *sched.Team, idx int32) {
	ti, tj := int(idx)/len(mc.colBands), int(idx)%len(mc.colBands)
	mc.multiplyPair(team, mc.rowBands[ti], mc.colBands[tj],
		mc.aTilesPerBand[ti], mc.bTilesPerBand[tj], mc.bWinsPerBand[tj],
		&mc.tiles[idx], &mc.denses[idx])
}

// contribution is one referenced submatrix multiplication feeding a target
// tile: a window of an A tile times a window of a B tile.
type contribution struct {
	aTile, bTile *Tile
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

	// Resolved operands after optimization: exactly one of each pair is
	// set. Dense operands are compact copies or shared windows, held as
	// value headers so resolving a window never heap-allocates.
	aSp, bSp kernels.CSRWin
	aD, bD   mat.Dense
	aKind    mat.Kind
	bKind    mat.Kind
	// aView, when set, holds A's row band by column, for SpSpDCols.
	aView *kernels.ColView

	// outer routes this contribution (sparse×sparse into a sparse target
	// only) to the outer-product multiway-merge kernel instead of
	// Gustavson — decided once per contribution by the cost model or the
	// SpGEMM policy override.
	outer bool
}

// multiplyPair computes one target tile C_{ti,tj} (Alg. 2 lines 6–10) into
// the pair's result slot. All transient state — the contribution list,
// converted operand windows, the sparse accumulator, the row fan-out
// closures and each worker's SPA — comes from the executing workers'
// persistent scratch arenas, so the steady-state allocation cost of a task
// is only the escaping result payload itself.
func (mc *mulCtx) multiplyPair(team *sched.Team, rb, cb Band, aTiles, bTiles []*Tile,
	bWins []kernels.CSRWin, out *Tile, dHdr *mat.Dense) {

	cfg, opts, est, stats := mc.cfg, mc.opts, mc.est, mc.stats
	m, n := rb.Len(), cb.Len()
	ws := stateFor(team, 0, cfg.EphemeralWorkers)
	ws.scratch.BeginTask()
	defer func() {
		ws.releaseContribs()
		ws.syncFootprint()
	}()

	// Collect the referenced submatrix multiplications with matching
	// contraction ranges (CALCULATEREFWINDOW, Alg. 2 line 8).
	contribs := ws.contribs[:0]
	for _, ta := range aTiles {
		ak0, ak1 := ta.Col0, ta.Col0+ta.Cols
		for bi, tb := range bTiles {
			bk0, bk1 := tb.Row0, tb.Row0+tb.Rows
			k0, k1 := max(ak0, bk0), min(ak1, bk1)
			if k1 <= k0 {
				continue
			}
			contribs = append(contribs, contribution{
				aTile: ta, bTile: tb, bWin: bWins[bi],
				aR0: rb.Lo - ta.Row0, aC0: k0 - ta.Col0,
				bR0: k0 - tb.Row0, bC0: cb.Lo - tb.Col0,
				k: k1 - k0, mRows: m, nCols: n,
			})
		}
	}
	ws.contribs = contribs // retain grown capacity for the next task
	if len(contribs) == 0 {
		return
	}
	mc.contributions.Add(int64(len(contribs)))

	// Decide the physical representation of the target tile from its
	// *final* estimated density (Alg. 2 line 6).
	targetKind := mat.Sparse
	var estRho float64
	if est != nil {
		estRho = regionDensity(est, rb.Lo, rb.Hi, cb.Lo, cb.Hi)
		if estRho >= stats.WriteThreshold {
			targetKind = mat.DenseKind
		}
	}

	// Dynamic optimizer (OPTIMIZE, Alg. 2 line 9): pick the operand
	// representations per contribution, converting windows just in time.
	for i := range contribs {
		ct := &contribs[i]
		t0 := time.Now()
		kindA, kindB := ct.aTile.Kind, ct.bTile.Kind
		rhoA := windowDensityApprox(ct.aTile)
		rhoB := windowDensityApprox(ct.bTile)
		if opts.DynOpt {
			plan := cfg.Cost.ChooseKernel(kindA, kindB, targetKind, m, ct.k, n, rhoA, rhoB, estRho)
			kindA, kindB = plan.KindA, plan.KindB
		}
		// Algorithm choice for sparse×sparse→sparse: outer-product merge
		// vs. Gustavson, per the cost model's crossover (or the forced
		// policy). Decided here, once per contribution, so every row slice
		// of the fan-out runs the same kernel.
		if targetKind == mat.Sparse && kindA == mat.Sparse && kindB == mat.Sparse {
			switch opts.SpGEMM {
			case SpGEMMOuter:
				ct.outer = true
			case SpGEMMGustavson:
				ct.outer = false
			default:
				ct.outer = cfg.Cost.PreferOuter(m, ct.k, n, runDensity(ct), rhoB)
			}
			if ct.outer {
				mc.outerCalls.Add(1)
			} else {
				mc.gustavsonCalls.Add(1)
			}
		}
		mc.optNanos.Add(time.Since(t0).Nanoseconds())
		ct.aKind, ct.bKind = kindA, kindB

		mc.resolveOperand(ct, true, kindA, ws.scratch)
		mc.resolveOperand(ct, false, kindB, ws.scratch)
		// A sparse A tile feeding a dense target is read through its row
		// band's column view; building one is conversion time, not a
		// conversion.
		if targetKind == mat.DenseKind && kindA == mat.Sparse && kindB == mat.Sparse && ct.aTile.Kind == mat.Sparse {
			t0 := time.Now()
			var hit bool
			if ct.aView, hit = mc.cache.view(ct.aTile, ct.aR0, ct.aR0+m); !hit {
				mc.convNanos.Add(time.Since(t0).Nanoseconds())
			}
		}

		// Simulated NUMA accounting: the team reads both operand
		// windows from their home nodes.
		stats.Numa.RecordAccess(team.Socket, ct.aTile.Home, windowBytes(ct.aTile, m, ct.k))
		stats.Numa.RecordAccess(team.Socket, ct.bTile.Home, windowBytes(ct.bTile, ct.k, n))
	}

	// Execute: intra-tile parallelization over the target rows; each
	// worker processes its row slice through all contributions. The row
	// bodies are the worker state's reusable closures reading the cur*
	// fields set here.
	t0 := time.Now()
	denseFn, sparseFn := ws.rowFns()
	ws.curTeam, ws.curEph = team, cfg.EphemeralWorkers
	if targetKind == mat.DenseKind {
		*dHdr = mat.Dense{Rows: m, Cols: n, Stride: n, Data: make([]float64, m*n)}
		ws.curD = dHdr
		team.ParallelRows(m, denseFn)
		mc.mulNanos.Add(time.Since(t0).Nanoseconds())
		nnz := dHdr.NNZ()
		if nnz == 0 {
			dHdr.Data = nil
			return
		}
		*out = Tile{Row0: rb.Lo, Col0: cb.Lo, Rows: m, Cols: n, Kind: mat.DenseKind, D: dHdr, NNZ: nnz}
	} else {
		// Each chunk of the fan-out stamps its own kernel and combine
		// time (busy time, summed across workers); the leader adds the
		// assembly of the combined rows into the result CSR.
		acc := ws.scratch.Acc(m, n)
		ws.curAcc, ws.curMC = acc, mc
		team.ParallelRows(m, sparseFn)
		t0 = time.Now()
		csr := acc.ToCSR()
		mc.finNanos.Add(time.Since(t0).Nanoseconds())
		if csr.NNZ() == 0 {
			return
		}
		*out = Tile{Row0: rb.Lo, Col0: cb.Lo, Rows: m, Cols: n, Kind: mat.Sparse, Sp: csr, NNZ: csr.NNZ()}
	}
	// The tile is homed where its tile-row is placed, not where it was
	// computed: Home is serialized, and which team ran the pair depends on
	// timing. The allocation is charged to the team that made it, so a
	// pair run away from home shows up in the NUMA statistics instead.
	out.Home = cfg.HomeOfRow(rb.Lo)
	stats.Numa.RecordAlloc(team.Socket, out.Bytes())
}

// resolveOperand fills the kernel operand fields of a contribution for the
// requested representation, converting the referenced window when it
// differs from the tile's stored kind. Ad-hoc window conversions land in
// the task's scratch arena (valid until the task ends); full-tile dense
// conversions go through the shared cache instead, because they outlive
// the task.
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
			ct.bSp = ct.bWin.RowSlice(r0, r0+rows)
			return
		}
		sp, d := tile.window(r0, r0+rows, c0, c0+cols)
		if isA {
			ct.aSp, ct.aD = sp, d
		} else {
			ct.bSp, ct.bD = sp, d
		}
		return
	}
	t0 := time.Now()
	if want == mat.DenseKind {
		// sparse → dense conversion. A full-tile conversion is cached
		// and shared across all pairs touching the tile (the same tile
		// recurs once per target band); partial windows are converted
		// ad hoc.
		var d *mat.Dense
		if r0 == 0 && c0 == 0 && rows == tile.Rows && cols == tile.Cols {
			var hit bool
			d, hit = mc.cache.dense(tile)
			if hit {
				// Cache hits cost nothing; don't count a conversion.
				if isA {
					ct.aD = *d
				} else {
					ct.bD = *d
				}
				return
			}
		} else {
			win := kernels.CSRWin{M: tile.Sp, Row0: r0, Col0: c0, Rows: rows, Cols: cols}
			d = win.ToDenseScratch(scr)
		}
		if isA {
			ct.aD = *d
		} else {
			ct.bD = *d
		}
	} else {
		// dense → sparse window copy, built in the scratch CSR arena
		dw := tile.D.View(r0, r0+rows, c0, c0+cols)
		csr := kernels.DenseToCSRScratch(&dw, scr)
		win := kernels.FullCSR(csr)
		if isA {
			ct.aSp = win
		} else {
			ct.bSp = win
		}
	}
	mc.convNanos.Add(time.Since(t0).Nanoseconds())
	mc.conversions.Add(1)
}

// convCache memoizes, for one ATMULT invocation, the full-tile
// sparse→dense conversions and the column views of sparse tiles' row
// bands. Each entry owns a sync.Once, so concurrent teams neither
// serialize on a global lock during the (potentially large) build nor
// duplicate it and throw one copy away — the map mutex is held only for
// the entry lookup. Very large tiles are not converted through the cache,
// to bound the extra memory; a view holds O(nnz) and always is.
type convCache struct {
	mu      sync.Mutex
	entries map[convKey]*convEntry
	maxTile int64
}

// convKey names one memoized form: a tile's dense form (row0 < 0) or the
// column view of its row band starting at tile-local row row0.
type convKey struct {
	t    *Tile
	row0 int
}

// convEntry is the per-key shard: the first caller through the Once runs
// the build, everyone else blocks only on this entry.
type convEntry struct {
	once sync.Once
	d    *mat.Dense
	v    *kernels.ColView
}

func newConvCache() *convCache {
	return &convCache{entries: make(map[convKey]*convEntry), maxTile: 64 << 20}
}

// do runs build once per key, however many teams ask concurrently, and
// reports whether an earlier call ran it.
func (c *convCache) do(k convKey, build func(e *convEntry)) (*convEntry, bool) {
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &convEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	hit := true
	e.once.Do(func() {
		build(e)
		hit = false
	})
	return e, hit
}

// dense returns the dense form of a sparse tile and whether it was cached.
func (c *convCache) dense(t *Tile) (*mat.Dense, bool) {
	if mat.DenseBytes(t.Rows, t.Cols) > c.maxTile {
		return t.Sp.ToDense(), false
	}
	e, hit := c.do(convKey{t, -1}, func(e *convEntry) { e.d = t.Sp.ToDense() })
	return e.d, hit
}

// view returns the column view of a sparse tile's row band [r0, r1) and
// whether it was cached.
func (c *convCache) view(t *Tile, r0, r1 int) (*kernels.ColView, bool) {
	e, hit := c.do(convKey{t, r0}, func(e *convEntry) { e.v = kernels.NewColView(t.Sp, r0, r1) })
	return e.v, hit
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
// [lo, hi) of the target tile.
//
//atlint:hotpath
func runDenseTarget(cw *mat.Dense, ct *contribution, lo, hi int) {
	aSp, aD := sliceA(ct, lo, hi)
	switch {
	case ct.aView != nil:
		kernels.SpSpDCols(cw, ct.aView, lo, ct.aC0, ct.bSp)
	case ct.aKind == mat.Sparse && ct.bKind == mat.Sparse:
		kernels.SpSpD(cw, aSp, ct.bSp)
	case ct.aKind == mat.Sparse && ct.bKind == mat.DenseKind:
		kernels.SpDD(cw, aSp, &ct.bD)
	case ct.aKind == mat.DenseKind && ct.bKind == mat.Sparse:
		kernels.DSpD(cw, &aD, ct.bSp)
	default:
		kernels.DDD(cw, &aD, &ct.bD)
	}
}

// runSparseTarget executes one contribution into the sparse accumulator
// rows [lo, hi). It draws the SPA or the merge arena from the executing
// worker's scratch, depending on the contribution's algorithm choice.
//
//atlint:hotpath
func runSparseTarget(acc *kernels.SpAcc, ct *contribution, lo, hi int, scr *kernels.Scratch) {
	aSp, aD := sliceA(ct, lo, hi)
	switch {
	case ct.aKind == mat.Sparse && ct.bKind == mat.Sparse:
		if ct.outer {
			kernels.OuterSpSp(acc, lo, 0, aSp, ct.bSp, scr.Merge())
		} else {
			kernels.SpSpSp(acc, lo, 0, aSp, ct.bSp, scr.SPA())
		}
	case ct.aKind == mat.Sparse && ct.bKind == mat.DenseKind:
		kernels.SpDSp(acc, lo, 0, aSp, &ct.bD, scr.SPA())
	case ct.aKind == mat.DenseKind && ct.bKind == mat.Sparse:
		kernels.DSpSp(acc, lo, 0, &aD, ct.bSp, scr.SPA())
	default:
		kernels.DDSp(acc, lo, 0, &aD, &ct.bD, scr.SPA())
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
		w := ct.aSp
		return kernels.CSRWin{M: w.M, Row0: w.Row0 + lo, Col0: w.Col0, Rows: hi - lo, Cols: w.Cols}, mat.Dense{}
	}
	return kernels.CSRWin{}, ct.aD.View(lo, hi, 0, ct.aD.Cols)
}
