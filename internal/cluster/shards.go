package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/sched"
)

// Sharded catalog: the coordinator cuts each cataloged matrix into
// tile-row shards at PUT time, ships every shard to its primary worker AND
// Replication−1 ring successors, and records the resulting shard map
// durably in the catalog manifest. An operand with no usable recorded map
// is cut by the same function for the one multiply, under a generation no
// catalog hands out, and its shards are dropped when the multiply returns.
// The anti-entropy RepairPass reconciles the recorded maps against
// worker-reported, CRC-verified inventories: lost shards are re-replicated
// back to R from the coordinator's durable copy, corrupt remote copies are
// dropped and replaced, and a dead primary is re-homed onto a surviving
// replica.

// mergeGate is the streaming merge's bounded reassembly window: a byte
// semaphore every in-flight partial-product frame must pass before its
// body is read off a worker response. A frame larger than the whole window
// is admitted alone (used == 0) so one oversized tile-row degrades to
// serial merging instead of deadlocking. While the window is full, readers
// block — backpressure propagates to workers through TCP flow control
// instead of growing the coordinator heap.
type mergeGate struct {
	capBytes int64

	mu     sync.Mutex
	used   int64
	peak   int64
	waitCh chan struct{}
}

func newMergeGate(capBytes int64) *mergeGate {
	return &mergeGate{capBytes: capBytes, waitCh: make(chan struct{})}
}

// acquire blocks until n bytes fit in the window (or ctx expires) and
// returns the matching release. Release is idempotent.
func (g *mergeGate) acquire(ctx context.Context, n int64) (func(), error) {
	for {
		g.mu.Lock()
		if g.used == 0 || g.used+n <= g.capBytes {
			g.used += n
			if g.used > g.peak {
				g.peak = g.used
			}
			g.mu.Unlock()
			var once sync.Once
			return func() { once.Do(func() { g.release(n) }) }, nil
		}
		ch := g.waitCh
		g.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
		}
	}
}

func (g *mergeGate) release(n int64) {
	g.mu.Lock()
	g.used -= n
	ch := g.waitCh
	g.waitCh = make(chan struct{})
	g.mu.Unlock()
	close(ch)
}

// peakBytes reports the high-water mark of concurrently buffered frame
// bytes — the chaos drill asserts it stays at or under the window.
func (g *mergeGate) peakBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// collectShardTiles gathers the whole original tiles covering any of the
// owned tile-row bands, in the matrix's canonical tile order — whole
// tiles, never split at band cuts (a split tile would steer the dynamic
// optimizer differently than a local run and break byte-identity), and a
// deterministic order so a shard's serialized bytes
// regenerate to the same CRC on every pass. The second result holds each
// collected tile's index in m.Tiles — the canonical-order key a worker
// needs to splice several shards back together bit-identically.
func collectShardTiles(m *core.ATMatrix, bands []int) ([]*core.Tile, []int) {
	var idx []int
	for _, b := range bands {
		for _, i := range m.RowBandTileIDs(b) {
			idx = append(idx, int(i))
		}
	}
	// A tile spanning several owned bands is listed once per band.
	slices.Sort(idx)
	idx = slices.Compact(idx)
	tiles := make([]*core.Tile, len(idx))
	for k, i := range idx {
		tiles[k] = m.Tiles[i]
	}
	return tiles, idx
}

// shardMatrixOf assembles the shard of m owning the given bands.
func shardMatrixOf(m *core.ATMatrix, bands []int) (*core.ATMatrix, error) {
	tiles, _ := collectShardTiles(m, bands)
	if len(tiles) == 0 {
		return nil, fmt.Errorf("cluster: shard bands %v own no tiles", bands)
	}
	return core.NewFromTiles(m.Rows, m.Cols, m.BAtomic, tiles)
}

// shardSlice serializes the shard of m owning the given bands in memory, once
// however many workers it is shipped to, and returns its footer CRC. Both are
// deterministic for unchanged matrix content, which lets the shard map record
// a fingerprint once and every later regeneration verify against it.
func shardSlice(m *core.ATMatrix, bands []int) ([]byte, uint32, error) {
	sm, err := shardMatrixOf(m, bands)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	_, crc, err := sm.Encode(&buf)
	return buf.Bytes(), crc, err
}

// regenShard re-serializes a recorded shard (for re-replication, or to
// fill a worker that reports it missing), refusing bytes whose footer no
// longer matches the recorded fingerprint — a damaged local copy must never
// be laundered into the cluster as if it were the original.
func regenShard(m *core.ATMatrix, key ShardKey, bands []int, crc uint32) ([]byte, error) {
	data, got, err := shardSlice(m, bands)
	if err != nil {
		return nil, err
	}
	if got != crc {
		return nil, fmt.Errorf("cluster: regenerated shard %s has footer %08x, map records %08x: %w", key, got, crc, core.ErrChecksum)
	}
	return data, nil
}

// AttachCatalog hands the coordinator its shard-map store: recorded maps
// are loaded (a restarted coordinator recovers its placement from the
// manifest instead of re-shipping every shard) and the anti-entropy loop
// starts if enabled. Call after catalog recovery so recovered maps are
// visible.
func (c *Coordinator) AttachCatalog(cat *catalog.Catalog) {
	var rctx context.Context
	c.shardMu.Lock()
	c.cat = cat
	c.shardMaps = cat.ShardMaps()
	if c.opts.RepairPeriod > 0 && c.repairCancel == nil {
		//atlint:ignore ctxflow deliberate lifecycle root, cancelled by Close
		ctx, cancel := context.WithCancel(context.Background())
		c.repairCancel = cancel
		c.repairDone = make(chan struct{})
		rctx = ctx
	}
	c.shardMu.Unlock()
	if rctx != nil {
		go c.repairLoop(rctx)
	}
}

// repairLoop runs the anti-entropy pass every RepairPeriod, and
// immediately when a worker transitions to Dead (the kick channel) so
// failover does not wait out the period.
func (c *Coordinator) repairLoop(ctx context.Context) {
	// repairDone is written under shardMu before this goroutine is spawned;
	// the spawn is the happens-before edge.
	defer close(c.repairDone)
	ticker := time.NewTicker(c.opts.RepairPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-c.repairKick:
		}
		_, _ = c.RepairPass(ctx)
	}
}

// observeHealth feeds one probe result into a worker's health state
// machine and kicks the repair loop when the worker just died — its
// primaries need re-homing and its shards re-replicating now, not at the
// next tick.
func (c *Coordinator) observeHealth(rt *RemoteTeam, ok bool) State {
	prev, _ := rt.health.current()
	now := rt.health.observe(ok, c.opts.SuspectAfter, c.opts.DeadAfter)
	if now == Dead && prev != Dead {
		select {
		case c.repairKick <- struct{}{}:
		default:
		}
	}
	return now
}

// shardCut is one shard as cutShards produces it: its shard-map row (no
// holders yet), its §III-F home among the workers it was cut for, and its
// serialized stream.
type shardCut struct {
	meta catalog.ShardMeta
	home int
	data []byte
}

// cutShards is the one shard cut, shared by PUT-time placement and
// per-multiply ephemeral maps: the §III-F round-robin placement of m's
// tile-rows over the given number of workers (sched.PlaceRoundRobin —
// placement lives in the scheduler, so the cluster provably shares the
// local policy), one shard per worker owning at least one non-empty band,
// serialized and fingerprinted. A matrix without tiles cuts into no shards.
func cutShards(m *core.ATMatrix, workers int) ([]shardCut, error) {
	nBands := len(m.RowBands())
	queues, ok := sched.PlaceRoundRobin(nBands, workers, nil)
	if !ok {
		return nil, fmt.Errorf("no home for %d tile-rows", nBands)
	}
	var cuts []shardCut
	for w, q := range queues {
		if len(q) == 0 {
			continue
		}
		bands := make([]int, len(q))
		for i, b := range q {
			bands[i] = int(b)
		}
		sort.Ints(bands)
		if !slices.ContainsFunc(bands, func(b int) bool { return len(m.RowBandTileIDs(b)) > 0 }) {
			// All owned bands are empty: nothing to hold, nothing to
			// compute — the shard map simply does not list them.
			continue
		}
		data, crc, err := shardSlice(m, bands)
		if err != nil {
			return nil, err
		}
		cuts = append(cuts, shardCut{
			meta: catalog.ShardMeta{
				ID: len(cuts), Bands: bands,
				CRC32C: crc, Bytes: int64(len(data)),
			},
			home: w,
			data: data,
		})
	}
	return cuts, nil
}

// ShardByName cuts a cataloged matrix into tile-row shards over the
// currently alive workers (the PUT-time entry point), ships each shard to
// its primary and Replication−1 ring successors, and records the map
// durably. Ship failures leave the shard under-replicated (RepairPass
// restores R); only a placement where nothing shipped at all is an error.
func (c *Coordinator) ShardByName(ctx context.Context, name string) error {
	if err := faultinject.Do("shard.place"); err != nil {
		return fmt.Errorf("cluster: placing shards of %q: %w", name, err)
	}
	c.shardMu.Lock()
	cat := c.cat
	c.shardMu.Unlock()
	if cat == nil {
		return fmt.Errorf("cluster: sharding %q: no catalog attached", name)
	}
	h, err := cat.Acquire(name)
	if err != nil {
		return err
	}
	defer h.Release()
	m := h.Matrix()
	if m.BAtomic != c.cfg.BAtomic {
		return fmt.Errorf("cluster: sharding %q: block size %d does not match cluster's %d", name, m.BAtomic, c.cfg.BAtomic)
	}
	alive := c.aliveTeams()
	if len(alive) == 0 {
		return fmt.Errorf("cluster: sharding %q: no alive workers", name)
	}
	cuts, err := cutShards(m, len(alive))
	if err != nil {
		return fmt.Errorf("cluster: sharding %q: %w", name, err)
	}
	if len(cuts) == 0 {
		return fmt.Errorf("cluster: sharding %q: matrix has no tiles", name)
	}
	repl := c.opts.Replication
	if repl > len(alive) {
		repl = len(alive)
	}
	gen := cat.NextGeneration()
	sm := &catalog.ShardMap{Generation: gen, Replication: repl}
	shipped := 0
	for _, cut := range cuts {
		meta := cut.meta
		key := ShardKey{Name: name, Gen: gen, Shard: meta.ID}
		for r := 0; r < repl; r++ {
			rt := alive[(cut.home+r)%len(alive)]
			if err := c.shipShard(ctx, rt, key, meta.CRC32C, cut.data); err != nil {
				continue
			}
			meta.Replicas = append(meta.Replicas, rt.addr)
		}
		shipped += len(meta.Replicas)
		if len(meta.Replicas) > 0 {
			meta.Primary = meta.Replicas[0]
		}
		sm.Shards = append(sm.Shards, meta)
	}
	if shipped == 0 {
		return fmt.Errorf("cluster: sharding %q: no shard could be placed on any worker", name)
	}
	if err := cat.SetShardMap(name, sm); err != nil {
		return err
	}
	c.shardMu.Lock()
	c.shardMaps[name] = sm.Clone()
	c.shardMu.Unlock()
	return nil
}

// shipShard uploads one shard to one worker under the RPC deadline.
func (c *Coordinator) shipShard(ctx context.Context, rt *RemoteTeam, key ShardKey, crc uint32, data []byte) error {
	if err := faultinject.Do("shard.repl"); err != nil {
		return fmt.Errorf("cluster: replicating shard %s to %s: %w", key, rt.addr, err)
	}
	sctx, cancel := context.WithTimeout(ctx, c.opts.RPCTimeout)
	defer cancel()
	if err := rt.shipShard(sctx, key, crc, data); err != nil {
		return err
	}
	c.shardShips.Add(1)
	c.shardShipBytes.Add(int64(len(data)))
	return nil
}

// DropShards forgets a matrix's shard map and best-effort drops its
// shards (every generation) from the workers — the DELETE-path
// counterpart of ShardByName. Worker-side leftovers of unreachable nodes
// are harmless: their generation can never be referenced again.
func (c *Coordinator) DropShards(ctx context.Context, name string) {
	c.shardMu.Lock()
	delete(c.shardMaps, name)
	c.shardMu.Unlock()
	c.mu.Lock()
	teams := append([]*RemoteTeam(nil), c.teams...)
	c.mu.Unlock()
	for _, rt := range teams {
		if rt.State() == Dead {
			continue
		}
		dctx, cancel := context.WithTimeout(ctx, c.opts.RPCTimeout)
		_ = rt.dropShards(dctx, name, nil)
		cancel()
	}
}

// shardMapFor returns a private copy of a matrix's shard map, or nil.
func (c *Coordinator) shardMapFor(name string) *catalog.ShardMap {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	return c.shardMaps[name].Clone()
}

// RepairPass runs one anti-entropy round over every recorded shard map:
// poll reachable workers for CRC-verified inventories, drop replica-set
// entries the worker no longer holds (or holds corrupt — those copies are
// also dropped remotely), promote verified opportunistic copies, ship
// fresh replicas regenerated from the catalog's durable copy until every
// shard is back at its replication factor, and re-home primaries off dead
// workers. Returns the number of replicas shipped. Safe to call
// concurrently with multiplies; the background loop calls it on a timer
// and on every healthy→dead transition.
func (c *Coordinator) RepairPass(ctx context.Context) (int, error) {
	c.shardMu.Lock()
	cat := c.cat
	maps := make(map[string]*catalog.ShardMap, len(c.shardMaps))
	for name, sm := range c.shardMaps {
		maps[name] = sm.Clone()
	}
	c.shardMu.Unlock()
	c.repairPasses.Add(1)
	if cat == nil || len(maps) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	teams := append([]*RemoteTeam(nil), c.teams...)
	c.mu.Unlock()
	byAddr := make(map[string]*RemoteTeam, len(teams))
	inv := make(map[string]map[ShardKey]inventoryEntry)
	for _, rt := range teams {
		byAddr[rt.addr] = rt
		if rt.State() == Dead {
			continue
		}
		ictx, cancel := context.WithTimeout(ctx, c.opts.RPCTimeout)
		entries, err := rt.inventory(ictx)
		cancel()
		if err != nil {
			continue
		}
		held := make(map[ShardKey]inventoryEntry, len(entries))
		for _, e := range entries {
			held[e.ShardKey] = e
		}
		inv[rt.addr] = held
	}
	names := make([]string, 0, len(maps))
	for name := range maps {
		names = append(names, name)
	}
	sort.Strings(names)
	repaired := 0
	var firstErr error
	for _, name := range names {
		sm := maps[name]
		n, changed, err := c.repairOne(ctx, cat, name, sm, teams, byAddr, inv)
		repaired += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !changed {
			continue
		}
		if err := cat.SetShardMap(name, sm); err != nil {
			if errors.Is(err, catalog.ErrNotFound) {
				// The matrix was deleted mid-pass; forget its map.
				c.shardMu.Lock()
				delete(c.shardMaps, name)
				c.shardMu.Unlock()
			} else if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.shardMu.Lock()
		c.shardMaps[name] = sm.Clone()
		c.shardMu.Unlock()
	}
	return repaired, firstErr
}

// repairOne reconciles and repairs one matrix's shard map in place,
// reporting replicas shipped and whether the map changed.
func (c *Coordinator) repairOne(ctx context.Context, cat *catalog.Catalog, name string, sm *catalog.ShardMap, teams []*RemoteTeam, byAddr map[string]*RemoteTeam, inv map[string]map[ShardKey]inventoryEntry) (int, bool, error) {
	var h *catalog.Handle
	defer func() {
		if h != nil {
			h.Release()
		}
	}()
	// regen rebuilds a shard's bytes from the catalog's durable copy.
	regen := func(meta *catalog.ShardMeta) ([]byte, error) {
		if h == nil {
			hh, err := cat.Acquire(name)
			if err != nil {
				return nil, err
			}
			h = hh
		}
		data, err := regenShard(h.Matrix(), ShardKey{Name: name, Gen: sm.Generation, Shard: meta.ID}, meta.Bands, meta.CRC32C)
		if errors.Is(err, core.ErrChecksum) {
			c.shardCRCFailures.Add(1)
		}
		return data, err
	}
	repaired := 0
	changed := false
	var firstErr error
	for i := range sm.Shards {
		meta := &sm.Shards[i]
		key := ShardKey{Name: name, Gen: sm.Generation, Shard: meta.ID}
		// Reconcile the recorded replica set against worker reports.
		kept := make([]string, 0, len(meta.Replicas))
		for _, addr := range meta.Replicas {
			held, answered := inv[addr]
			if !answered {
				// Unreachable: keep the membership — a rejoining worker
				// usually still holds its shards; the next pass verifies.
				kept = append(kept, addr)
				continue
			}
			e, ok := held[key]
			switch {
			case !ok:
				// The worker restarted empty (or dropped the shard): it is
				// no longer a holder.
				changed = true
			case e.CRC32C != meta.CRC32C || e.Bytes != meta.Bytes:
				// Scrub failure: the remote copy rotted. Drop it there and
				// strike the holder; re-replication below replaces it.
				c.shardCRCFailures.Add(1)
				changed = true
				if rt := byAddr[addr]; rt != nil {
					dctx, cancel := context.WithTimeout(ctx, c.opts.RPCTimeout)
					_ = rt.dropShards(dctx, "", []ShardKey{key})
					cancel()
				}
			default:
				kept = append(kept, addr)
			}
		}
		holder := make(map[string]bool, len(kept))
		for _, addr := range kept {
			holder[addr] = true
		}
		// Promote verified opportunistic copies (fills of workers that
		// reported the shard missing) to full replicas — durability for
		// free. The inventories just polled are the record of them.
		for _, rt := range teams {
			if e, ok := inv[rt.addr][key]; ok && !holder[rt.addr] && e.CRC32C == meta.CRC32C && e.Bytes == meta.Bytes {
				kept = append(kept, rt.addr)
				holder[rt.addr] = true
				changed = true
			}
		}
		healthy := 0
		for _, addr := range kept {
			if _, ok := inv[addr]; ok {
				healthy++
			}
		}
		want := sm.Replication
		if want > len(inv) {
			want = len(inv)
		}
		if healthy < want {
			data, err := regen(meta)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				for off := 0; off < len(teams) && healthy < want; off++ {
					rt := teams[(meta.ID+off)%len(teams)]
					if holder[rt.addr] {
						continue
					}
					if _, ok := inv[rt.addr]; !ok {
						continue
					}
					if err := c.shipShard(ctx, rt, key, meta.CRC32C, data); err != nil {
						if firstErr == nil {
							firstErr = err
						}
						continue
					}
					kept = append(kept, rt.addr)
					holder[rt.addr] = true
					healthy++
					repaired++
					changed = true
					c.reReplications.Add(1)
				}
			}
		}
		meta.Replicas = kept
		// Re-home the primary onto a reachable verified holder.
		if !(holder[meta.Primary] && inv[meta.Primary] != nil) {
			for _, addr := range kept {
				if _, ok := inv[addr]; ok {
					if meta.Primary != addr {
						meta.Primary = addr
						changed = true
					}
					break
				}
			}
		}
	}
	return repaired, changed, firstErr
}

// shardSource regenerates shard payloads for workers that report a
// reference missing, paying each shard's encoding at most once per
// multiply and verifying every regeneration against the shard map's
// recorded CRC. It also remembers which workers were sent an ephemeral
// shard, the set the multiply's cleanup drops them from.
type shardSource struct {
	mu       sync.Mutex
	specs    map[ShardKey]shardSpec
	cache    map[ShardKey][]byte
	received map[*RemoteTeam]bool
}

type shardSpec struct {
	m     *core.ATMatrix
	bands []int
	crc   uint32
}

func newShardSource() *shardSource {
	return &shardSource{
		specs:    make(map[ShardKey]shardSpec),
		cache:    make(map[ShardKey][]byte),
		received: make(map[*RemoteTeam]bool),
	}
}

func (s *shardSource) bytes(key ShardKey) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if data, ok := s.cache[key]; ok {
		return data, nil
	}
	spec, ok := s.specs[key]
	if !ok {
		return nil, fmt.Errorf("cluster: no source for shard %s", key)
	}
	data, err := regenShard(spec.m, key, spec.bands, spec.crc)
	if err != nil {
		return nil, err
	}
	s.cache[key] = data
	return data, nil
}

// fillShards uploads the shards a worker reported missing and reports
// whether any of them had not been sent to it by this attempt before (the
// caller's bound on re-sends). A worker whose store accepted a recorded
// shard is a verified holder of it; RepairPass finds it in the worker's
// inventory and may promote it.
func (c *Coordinator) fillShards(ctx context.Context, rt *RemoteTeam, src *shardSource, keys []ShardKey, filled map[ShardKey]bool) (bool, error) {
	fresh := false
	for _, key := range keys {
		if filled[key] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		data, err := src.bytes(key)
		if err != nil {
			// The coordinator cannot regenerate the shard to the recorded
			// fingerprint: surface it (checksum failures reach the
			// quarantine) rather than executing on divergent bytes.
			return false, err
		}
		if key.ephemeral() {
			src.mu.Lock()
			src.received[rt] = true
			src.mu.Unlock()
		}
		// An upload abandoned mid-flight could land after the multiply's
		// cleanup drop, so it runs to its own deadline even when the
		// attempt is cancelled (an aborted multiply).
		if err := c.shipShard(context.WithoutCancel(ctx), rt, key, src.specs[key].crc, data); err != nil {
			return false, err
		}
		filled[key], fresh = true, true
	}
	return fresh, nil
}

// dropEphemeral removes a multiply's ephemeral shards from every worker
// that was sent one. It runs on every outcome — success, failure,
// cancellation — so it sheds the multiply's cancellation and takes a
// fresh deadline.
func (c *Coordinator) dropEphemeral(ctx context.Context, src *shardSource) {
	if len(src.received) == 0 {
		return
	}
	var keys []ShardKey
	for key := range src.specs {
		if key.ephemeral() {
			keys = append(keys, key)
		}
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), c.opts.RPCTimeout)
	defer cancel()
	for rt := range src.received {
		_ = rt.dropShards(ctx, "", keys)
	}
}

// shardMapOf returns the map an operand's references are cut from: the
// recorded catalog map when the name has one that fits the matrix's band
// grid, otherwise an ephemeral map cut for this multiply — generation
// negative (no catalog hands one out), homes in place of holders, so every
// reference misses once and is filled. The ephemeral payloads seed the
// source's cache; they were serialized to fingerprint them anyway.
func (c *Coordinator) shardMapOf(name string, m *core.ATMatrix, src *shardSource, alive []*RemoteTeam) (*catalog.ShardMap, error) {
	if sm := c.shardMapFor(name); sm != nil && len(sm.Shards) > 0 && shardMapFits(sm, len(m.RowBands())) {
		return sm, nil
	}
	cuts, err := cutShards(m, len(alive))
	if err != nil {
		return nil, fmt.Errorf("cluster: cutting ephemeral shards: %w", err)
	}
	sm := &catalog.ShardMap{Generation: -c.ephemeralSeq.Add(1)}
	src.mu.Lock()
	defer src.mu.Unlock()
	for _, cut := range cuts {
		meta := cut.meta
		meta.Primary = alive[cut.home].addr
		sm.Shards = append(sm.Shards, meta)
		src.cache[ShardKey{Name: name, Gen: sm.Generation, Shard: meta.ID}] = cut.data
	}
	return sm, nil
}

// shardMapFits reports whether every band a recorded map lists exists in
// the matrix's current band grid.
func shardMapFits(sm *catalog.ShardMap, nBands int) bool {
	for _, meta := range sm.Shards {
		for _, band := range meta.Bands {
			if band < 0 || band >= nBands {
				return false
			}
		}
	}
	return true
}

// buildShardTasks cuts tasks along the left operand's shard map: one task
// per shard, owned by its primary (else the first alive replica, else any
// worker), with the right operand referenced shard by shard — the worker
// reassembles whole B from its store.
func (c *Coordinator) buildShardTasks(aName, bName string, a, b *core.ATMatrix, alive []*RemoteTeam, src *shardSource) ([]*task, error) {
	aSM, err := c.shardMapOf(aName, a, src, alive)
	if err != nil {
		return nil, err
	}
	bSM, err := c.shardMapOf(bName, b, src, alive)
	if err != nil {
		return nil, err
	}
	if len(aSM.Shards) == 0 || len(bSM.Shards) == 0 {
		// An operand without tiles: the product has none either.
		return nil, nil
	}
	rowBands := a.RowBands()
	addrIdx := make(map[string]int, len(alive))
	for i, rt := range alive {
		addrIdx[rt.addr] = i
	}

	var bRefs []shardRef
	for _, meta := range bSM.Shards {
		key := ShardKey{Name: bName, Gen: bSM.Generation, Shard: meta.ID}
		// The canonical-order indices let the worker splice the interleaved
		// tile-row slices back into the partitioner's emission order, which
		// the accumulation order (and so bit-identity) depends on.
		_, idx := collectShardTiles(b, meta.Bands)
		bRefs = append(bRefs, shardRef{ShardKey: key, CRC: meta.CRC32C, Bytes: meta.Bytes, TileIdx: idx})
		src.specs[key] = shardSpec{m: b, bands: meta.Bands, crc: meta.CRC32C}
	}

	var tasks []*task
	for _, meta := range aSM.Shards {
		key := ShardKey{Name: aName, Gen: aSM.Generation, Shard: meta.ID}
		aMat, err := shardMatrixOf(a, meta.Bands)
		if err != nil {
			return nil, fmt.Errorf("cluster: rebuilding shard %d of %q: %w", meta.ID, aName, err)
		}
		src.specs[key] = shardSpec{m: a, bands: meta.Bands, crc: meta.CRC32C}
		owner := -1
		for _, addr := range append([]string{meta.Primary}, meta.Replicas...) {
			if i, ok := addrIdx[addr]; ok {
				owner = i
				break
			}
		}
		if owner < 0 {
			owner = meta.ID % len(alive)
		}
		keepRow := make(map[int]bool, len(meta.Bands))
		for _, band := range meta.Bands {
			keepRow[rowBands[band].Lo] = true
		}
		tasks = append(tasks, &task{
			owner: owner,
			aMat:  aMat, bMat: b,
			aRefs:   []shardRef{{ShardKey: key, CRC: meta.CRC32C, Bytes: meta.Bytes}},
			bRefs:   bRefs,
			src:     src,
			keepRow: keepRow,
		})
	}
	return tasks, nil
}
