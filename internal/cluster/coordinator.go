package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/core"
)

// Coordinator owns the worker registry, the replicated shard catalog and
// the distribution of multiplications: plan globally (band grid + write
// threshold), cut one task per shard of the left operand, execute every
// task by shard reference against the workers' stores (uploading a shard
// only to a worker that reports it missing), dispatch with retries and
// re-routing, and merge the streamed partial-product frames under a
// bounded reassembly window. Install Multiply as
// service.Options.Distribute to put it behind the admission queue.
type Coordinator struct {
	cfg  core.Config
	opts Options

	mu    sync.Mutex
	teams []*RemoteTeam

	// Sharded-catalog state: the attached catalog (shard maps persist in
	// its manifest) and the in-memory map cache. Guarded by shardMu.
	shardMu      sync.Mutex
	cat          *catalog.Catalog
	shardMaps    map[string]*catalog.ShardMap
	repairCancel context.CancelFunc
	repairDone   chan struct{}
	repairKick   chan struct{}

	// gate is the streaming merge's bounded reassembly window.
	gate *mergeGate

	// ephemeralSeq numbers per-multiply shard maps; negated, it is their
	// generation, which no catalog hands out.
	ephemeralSeq atomic.Int64

	remoteMultiplies atomic.Int64
	localFallbacks   atomic.Int64
	localTasks       atomic.Int64
	rpcRetries       atomic.Int64
	tilesRerouted    atomic.Int64

	shardShips       atomic.Int64
	shardShipBytes   atomic.Int64
	reReplications   atomic.Int64
	shardCRCFailures atomic.Int64
	shardRefHits     atomic.Int64
	shardRefBytes    atomic.Int64
	repairPasses     atomic.Int64
	mergeFrames      atomic.Int64

	hbCancel context.CancelFunc
	hbDone   chan struct{}
}

// verifySeq seeds successive coordinator-level Freivalds checks.
var verifySeq atomic.Int64

// NewCoordinator creates a coordinator over the given initial peers
// (worker base URLs or host:port addresses; more can Register later) and
// starts the heartbeat loop unless opts.HeartbeatPeriod is negative. Call
// AttachCatalog to enable the sharded catalog and its anti-entropy loop.
func NewCoordinator(cfg core.Config, opts Options, peers []string) *Coordinator {
	c := &Coordinator{
		cfg:        cfg,
		opts:       opts.withDefaults(),
		shardMaps:  make(map[string]*catalog.ShardMap),
		repairKick: make(chan struct{}, 1),
		hbDone:     make(chan struct{}),
	}
	c.gate = newMergeGate(c.opts.MergeWindow)
	for _, p := range peers {
		if p != "" {
			c.Register(p)
		}
	}
	if c.opts.HeartbeatPeriod > 0 {
		//atlint:ignore ctxflow deliberate lifecycle root, cancelled by Close
		ctx, cancel := context.WithCancel(context.Background())
		c.hbCancel = cancel
		go c.heartbeatLoop(ctx)
	} else {
		close(c.hbDone)
	}
	return c
}

// Close stops the heartbeat and anti-entropy loops. In-flight multiplies
// finish normally.
func (c *Coordinator) Close() {
	if c.hbCancel != nil {
		c.hbCancel()
		c.hbCancel = nil
		<-c.hbDone
	}
	c.shardMu.Lock()
	cancel, done := c.repairCancel, c.repairDone
	c.repairCancel = nil
	c.shardMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Register adds a worker (idempotent by address) and reports whether it
// was new. A re-registering address is the worker process rejoining; its
// health resets on the next successful heartbeat, not here, so a flapping
// process cannot whitewash its miss history by re-registering.
func (c *Coordinator) Register(addr string) bool {
	rt := newRemoteTeam(addr, c.opts.Client)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.teams {
		if t.addr == rt.addr {
			return false
		}
	}
	c.teams = append(c.teams, rt)
	return true
}

// Workers reports every registered worker's health, for /healthz and
// /metrics.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	teams := append([]*RemoteTeam(nil), c.teams...)
	c.mu.Unlock()
	out := make([]WorkerStatus, len(teams))
	for i, t := range teams {
		s, misses := t.health.current()
		out[i] = WorkerStatus{Addr: t.addr, State: s.String(), Misses: misses}
	}
	return out
}

// Stats snapshots the robustness counters, the shard-map health (the
// under-replication gauge /healthz degrades on) and the streaming-merge
// accounting.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		RemoteMultiplies: c.remoteMultiplies.Load(),
		LocalFallbacks:   c.localFallbacks.Load(),
		LocalTasks:       c.localTasks.Load(),
		RPCRetries:       c.rpcRetries.Load(),
		TilesRerouted:    c.tilesRerouted.Load(),

		ShardShips:       c.shardShips.Load(),
		ShardShipBytes:   c.shardShipBytes.Load(),
		ReReplications:   c.reReplications.Load(),
		ShardCRCFailures: c.shardCRCFailures.Load(),
		ShardRefHits:     c.shardRefHits.Load(),
		ShardRefBytes:    c.shardRefBytes.Load(),
		RepairPasses:     c.repairPasses.Load(),

		MergeFrames:    c.mergeFrames.Load(),
		MergePeakBytes: c.gate.peakBytes(),
	}
	notDead := make(map[string]bool)
	for _, w := range c.Workers() {
		switch w.State {
		case Healthy.String():
			s.WorkersHealthy++
		case Suspect.String():
			s.WorkersSuspect++
		default:
			s.WorkersDead++
		}
		if w.State != Dead.String() {
			notDead[w.Addr] = true
		}
	}
	c.shardMu.Lock()
	s.ShardedMatrices = len(c.shardMaps)
	for _, sm := range c.shardMaps {
		s.ShardsTotal += len(sm.Shards)
		for _, meta := range sm.Shards {
			healthy := 0
			for _, addr := range meta.Replicas {
				if notDead[addr] {
					healthy++
				}
			}
			if healthy < sm.Replication {
				s.UnderReplicatedShards++
			}
		}
	}
	c.shardMu.Unlock()
	return s
}

// heartbeatLoop probes every worker each period and feeds the results to
// the health state machines. Dead workers keep being probed — a process
// that comes back is revived by its first successful answer.
func (c *Coordinator) heartbeatLoop(ctx context.Context) {
	defer close(c.hbDone)
	ticker := time.NewTicker(c.opts.HeartbeatPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		teams := append([]*RemoteTeam(nil), c.teams...)
		c.mu.Unlock()
		for _, rt := range teams {
			hctx, cancel := context.WithTimeout(ctx, c.opts.HeartbeatTimeout)
			ok := rt.heartbeat(hctx)
			cancel()
			if ctx.Err() != nil {
				return
			}
			c.observeHealth(rt, ok)
		}
	}
}

// aliveTeams snapshots the non-dead workers (order = registration order,
// the home axis of the round-robin placement).
func (c *Coordinator) aliveTeams() []*RemoteTeam {
	c.mu.Lock()
	defer c.mu.Unlock()
	var alive []*RemoteTeam
	for _, t := range c.teams {
		if t.State() != Dead {
			alive = append(alive, t)
		}
	}
	return alive
}

// task is one unit of distributed work: one shard of A × all of B, both
// resolved from the workers' shard stores by reference. The shard matrices
// are kept for the last-resort local execution.
//
// Shard tiles are the ORIGINAL tiles, never split at band cuts: the
// dynamic optimizer's cost model reads whole-tile densities, so a split
// tile would steer kernel and representation choices differently than the
// local run and break bit-identity. A tile spanning several bands
// therefore rides along into every shard overlapping it, the worker
// redundantly computes the spilled-over targets, and keepRow restricts
// the returned product to the tile-rows this task owns. Nothing is
// ever cut in the contraction direction — every worker runs the exact
// contraction windows, kernels and accumulation order of the local
// operator.
type task struct {
	owner      int // index into the alive-team snapshot
	aMat, bMat *core.ATMatrix
	// aRefs/bRefs resolve the operands from worker shard stores; src
	// regenerates the payload of a shard a worker reports missing.
	aRefs []shardRef
	bRefs []shardRef
	src   *shardSource
	// keepRow holds the band Lo coordinates of the owned tile-rows (their
	// count is the tiles_rerouted unit); result tiles always sit exactly on
	// band origins, so membership is exact. Every task multiplies by whole
	// B and so owns all of its column bands.
	keepRow map[int]bool
}

// Multiply executes C = A·B across the cluster, falling back to local
// execution when no workers can serve. The operand names select the
// catalog shard maps; an operand without a usable one ("" or an unsharded
// name) is cut into ephemeral shards that live for this multiply only. It
// satisfies the service.Options.Distribute contract.
func (c *Coordinator) Multiply(aName, bName string, a, b *core.ATMatrix, opts core.MultOptions) (*core.ATMatrix, *core.MultStats, error) {
	alive := c.aliveTeams()
	if len(alive) == 0 ||
		a.Cols != b.Rows || a.BAtomic != c.cfg.BAtomic || b.BAtomic != c.cfg.BAtomic {
		// No cluster to shard over (or operands the local operator should
		// reject with its own diagnostics): degrade to single-node
		// execution.
		c.localFallbacks.Add(1)
		return core.MultiplyOpt(a, b, c.cfg, opts)
	}
	out, stats, err := c.multiplyDistributed(aName, bName, a, b, opts, alive)
	if err != nil {
		return nil, nil, err
	}
	c.remoteMultiplies.Add(1)
	return out, stats, nil
}

func (c *Coordinator) multiplyDistributed(aName, bName string, a, b *core.ATMatrix, opts core.MultOptions, alive []*RemoteTeam) (*core.ATMatrix, *core.MultStats, error) {
	ctx := opts.Ctx
	if ctx == nil {
		//atlint:ignore ctxflow uncancellable caller: local root for per-RPC deadlines
		ctx = context.Background()
	}
	wallStart := time.Now()
	stats := &core.MultStats{}

	// Global plan: the write threshold must come from the full density
	// map — a shard-local water level would classify result tiles
	// differently than a local run (§III-E).
	t0 := time.Now()
	stats.WriteThreshold = 2
	if opts.Estimate {
		stats.WriteThreshold = core.PlanWriteThreshold(a, b, c.cfg)
	}
	if opts.WriteThreshold > 0 {
		stats.WriteThreshold = opts.WriteThreshold
	}
	hdr := execHeader{
		BAtomic:        c.cfg.BAtomic,
		WriteThreshold: stats.WriteThreshold,
	}
	src := newShardSource()
	defer c.dropEphemeral(ctx, src)
	tasks, err := c.buildShardTasks(aName, bName, a, b, alive, src)
	if err != nil {
		return nil, nil, err
	}
	stats.EstimateTime = time.Since(t0)

	// Shard options: workers re-derive band-local density maps for kernel
	// selection but decide representations against the shipped threshold;
	// verification runs once, on the assembled product.
	shardOpts := opts
	shardOpts.Verify = 0
	shardOpts.WriteThreshold = stats.WriteThreshold
	shardOpts.Estimate = true

	// Dispatch every task; each routes and retries independently,
	// and streams its partial product back frame by frame — kept tiles
	// accumulate per task, spill-over is dropped the moment a frame
	// arrives, and the merge window bounds the undecoded bytes in flight.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		partials = make([][]*core.Tile, len(tasks))
		firstErr error
		contribs int64
	)
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t *task) {
			defer wg.Done()
			kept, n, err := c.runTask(ctx, alive, hdr, shardOpts, t)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			partials[i] = kept
			contribs += n
		}(i, t)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Merge: the per-frame filtering already restricted every partial to
	// its task's owned disjoint tile-rows and re-homed the tiles —
	// assembly is a band-grid sort, the same (Row0, Col0) order the local
	// operator emits its result slots in.
	var tiles []*core.Tile
	for _, kept := range partials {
		tiles = append(tiles, kept...)
	}
	sort.Slice(tiles, func(i, j int) bool {
		if tiles[i].Row0 != tiles[j].Row0 {
			return tiles[i].Row0 < tiles[j].Row0
		}
		return tiles[i].Col0 < tiles[j].Col0
	})
	out, err := core.NewFromTiles(a.Rows, b.Cols, c.cfg.BAtomic, tiles)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: assembling partial products: %w", err)
	}
	stats.Contributions = contribs
	stats.TargetTiles = int64(len(tiles))
	if opts.Verify > 0 {
		t0 := time.Now()
		if err := core.VerifyProductOn(core.TeamSweeper(ctx, c.cfg, opts.Watchdog), a, b, out, opts.Verify, verifySeq.Add(1)); err != nil {
			return nil, nil, err
		}
		stats.VerifyTime = time.Since(t0)
	}
	stats.WallTime = time.Since(wallStart)
	return out, stats, nil
}

// runTask executes one shard task with the full failure policy: try the
// §III-F owner first (per-attempt RPC deadline, transient re-sends with
// capped exponential backoff), then re-route the tile-rows to the
// survivors in ring order, one worker at a time, when a worker is
// exhausted. If every worker fails, the task degrades to local execution —
// unless the failures say the transfers are corrupt, which must surface to
// the quarantine instead of being masked by a locally computed result.
func (c *Coordinator) runTask(ctx context.Context, alive []*RemoteTeam, hdr execHeader, shardOpts core.MultOptions, t *task) ([]*core.Tile, int64, error) {
	n := len(alive)
	tried := make([]bool, n)
	// next picks the untried candidate closest after the owner in ring
	// order, preferring workers not currently dead; once only dead ones
	// remain they are tried too (a killed process may have come back).
	next := func() int {
		for pass := 0; pass < 2; pass++ {
			for off := 0; off < n; off++ {
				i := (t.owner + off) % n
				if tried[i] {
					continue
				}
				if pass == 0 && alive[i].State() == Dead {
					continue
				}
				return i
			}
		}
		return -1
	}
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		idx := next()
		if idx < 0 {
			break
		}
		tried[idx] = true
		if idx != t.owner {
			// The owner could not serve its tile-rows; account the move.
			c.tilesRerouted.Add(int64(len(t.keepRow)))
		}
		tiles, contribs, err := c.execOnWorker(ctx, alive[idx], hdr, t)
		if err == nil {
			return tiles, contribs, nil
		}
		lastErr = err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if lastErr != nil && isCorrupt(lastErr) {
		return nil, 0, lastErr
	}
	// Graceful degradation: every worker is unreachable or failing, but
	// the coordinator still holds the shard — execute it locally and keep
	// only the owned region, exactly like a streamed remote result.
	c.localTasks.Add(1)
	m, st, err := core.MultiplyOpt(t.aMat, t.bMat, c.cfg, shardOpts)
	if err != nil {
		return nil, 0, err
	}
	return c.keepTiles(t, m.Tiles, nil), st.Contributions, nil
}

// keepTiles filters one batch of product tiles down to the task's owned
// region (dropping spill-over from band-spanning shard tiles) and re-homes
// the survivors onto the topology's socket layout.
func (c *Coordinator) keepTiles(t *task, tiles []*core.Tile, into []*core.Tile) []*core.Tile {
	for _, tile := range tiles {
		if !t.keepRow[tile.Row0] {
			continue
		}
		tile.Home = c.cfg.HomeOfRow(tile.Row0)
		into = append(into, tile)
	}
	return into
}

// execOnWorker runs the per-worker retry loop: transient failures re-send
// to the same worker under capped exponential backoff; permanent ones
// return immediately so the caller re-routes. Transport-level failures
// count against the worker's health exactly like missed heartbeats. A 409
// cache miss is not a failure: the missing shards are uploaded to the
// worker and the same reference-only exec is re-sent at once, bounded by
// the reference count.
func (c *Coordinator) execOnWorker(ctx context.Context, rt *RemoteTeam, hdr execHeader, t *task) ([]*core.Tile, int64, error) {
	hdr.ARefs, hdr.BRefs = t.aRefs, t.bRefs
	filled := make(map[ShardKey]bool)
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.rpcRetries.Add(1)
			if !sleepCtx(ctx, backoffDelay(c.opts.RetryBase, c.opts.RetryMax, attempt-1)) {
				return nil, 0, ctx.Err()
			}
		}
		var kept []*core.Tile
		rctx, cancel := context.WithTimeout(ctx, c.opts.RPCTimeout)
		acquire := func(n int) (func(), error) { return c.gate.acquire(rctx, int64(n)) }
		onFrame := func(m *core.ATMatrix) error {
			c.mergeFrames.Add(1)
			kept = c.keepTiles(t, m.Tiles, kept)
			return nil
		}
		contribs, err := rt.exec(rctx, hdr, acquire, onFrame)
		cancel()
		var mse *missingShardsError
		if errors.As(err, &mse) {
			// A cache miss, not a failure: upload what is missing and
			// re-send at once. Every round must fill a reference this
			// call had not filled before, which bounds the re-sends.
			fresh, ferr := c.fillShards(ctx, rt, t.src, mse.keys, filled)
			if ferr == nil && fresh {
				attempt--
				continue
			}
			if ferr != nil {
				err = ferr
			}
		}
		if err == nil {
			c.observeHealth(rt, true)
			for _, refs := range [][]shardRef{t.aRefs, t.bRefs} {
				for _, ref := range refs {
					if !filled[ref.ShardKey] {
						c.shardRefHits.Add(1)
						c.shardRefBytes.Add(ref.Bytes)
					}
				}
			}
			return kept, contribs, nil
		}
		if ctx.Err() != nil {
			// The parent was cancelled (multiply aborted, deadline):
			// the failure says nothing about the worker.
			return nil, 0, ctx.Err()
		}
		var te *transportError
		if errors.As(err, &te) {
			c.observeHealth(rt, false)
		}
		lastErr = err
		if !isTransient(err) {
			break
		}
	}
	return nil, 0, lastErr
}

// backoffDelay is the capped exponential retry delay.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	return d
}

// sleepCtx sleeps d, reporting false if ctx expires first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
