package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/core"
	"atmatrix/internal/leakcheck"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// loadCatalog builds a memory-only catalog holding the given matrices.
func loadCatalog(t *testing.T, cfg core.Config, mats map[string]*core.ATMatrix) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Open(cfg, 0, "")
	if err != nil {
		t.Fatalf("catalog open: %v", err)
	}
	t.Cleanup(cat.Close)
	for name, m := range mats {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("serializing %s: %v", name, err)
		}
		if _, err := cat.Load(name, catalog.FormatATM, &buf, false); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
	}
	return cat
}

// acquireMatrix pins a catalog matrix for the test's duration, the way the
// service layer holds operands across a Distribute call.
func acquireMatrix(t *testing.T, cat *catalog.Catalog, name string) *core.ATMatrix {
	t.Helper()
	h, err := cat.Acquire(name)
	if err != nil {
		t.Fatalf("acquire %s: %v", name, err)
	}
	t.Cleanup(h.Release)
	return h.Matrix()
}

// shardedOptions is testOptions plus a deterministic sharded catalog: the
// anti-entropy loop disabled (tests call RepairPass directly) and a
// replication factor of 2.
func shardedOptions(hc *http.Client) Options {
	opts := testOptions(hc)
	opts.Replication = 2
	opts.RepairPeriod = -1
	return opts
}

// TestShardedMultiplyByReference is the tentpole's happy path: matrices
// sharded at PUT time multiply by (name, generation, shard) reference —
// byte-identical to local execution, with the operand bytes resolved from
// the workers' shard stores instead of crossing the wire, the partial
// products streamed frame-by-frame, and the merge window never exceeded.
func TestShardedMultiplyByReference(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(71))
	am := partition(t, cfg, mat.RandomCOO(rng, 160, 128, 4000))
	bm := partition(t, cfg, mat.RandomCOO(rng, 128, 144, 3500))
	cat := loadCatalog(t, cfg, map[string]*core.ATMatrix{"a": am, "b": bm})
	a := acquireMatrix(t, cat, "a")
	b := acquireMatrix(t, cat, "b")

	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("local multiply: %v", err)
	}

	hc := testClient(t)
	var peers []string
	for i := 0; i < 3; i++ {
		addr, _ := startWorker(t, cfg, nil)
		peers = append(peers, addr)
	}
	coord := NewCoordinator(cfg, shardedOptions(hc), peers)
	defer coord.Close()
	coord.AttachCatalog(cat)
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if err := coord.ShardByName(ctx, name); err != nil {
			t.Fatalf("sharding %s: %v", name, err)
		}
	}

	s := coord.Stats()
	if s.ShardedMatrices != 2 || s.ShardsTotal == 0 {
		t.Fatalf("stats after sharding = %+v, want 2 sharded matrices with shards", s)
	}
	if s.UnderReplicatedShards != 0 {
		t.Fatalf("stats = %+v, want full replication right after placement", s)
	}
	// R=2: every shard shipped to a primary and one ring successor.
	if s.ShardShips != int64(2*s.ShardsTotal) {
		t.Fatalf("shard ships = %d, want %d (R=2 over %d shards)", s.ShardShips, 2*s.ShardsTotal, s.ShardsTotal)
	}

	dist, _, err := coord.Multiply("a", "b", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("sharded multiply: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("sharded multiply is not byte-identical to local execution")
	}
	s = coord.Stats()
	if s.RemoteMultiplies != 1 {
		t.Fatalf("remote multiplies = %d, want 1", s.RemoteMultiplies)
	}
	if s.ShardRefHits == 0 || s.ShardRefBytes == 0 {
		t.Fatalf("stats = %+v, want operands resolved by shard reference", s)
	}
	if s.MergeFrames == 0 {
		t.Fatalf("stats = %+v, want streamed merge frames", s)
	}
	if s.MergePeakBytes <= 0 || s.MergePeakBytes > coord.opts.MergeWindow {
		t.Fatalf("merge peak %d outside (0, window %d]", s.MergePeakBytes, coord.opts.MergeWindow)
	}
}

// TestShardedPrimaryKillFailsOverToReplicas is the ISSUE's chaos drill on
// the replicated catalog: with R=2, a worker is killed (connections
// severed, kill-9 style) in the middle of a multiply referencing its
// primary shards. The multiply must fail over to the ring-successor
// replicas and return a byte-identical product; the replication gauges
// must report the degradation; one RepairPass must re-replicate the dead
// worker's shards back to R and re-home its primaries; the streaming merge
// must stay inside its window; and no goroutine may leak.
func TestShardedPrimaryKillFailsOverToReplicas(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(72))
	am := partition(t, cfg, mat.RandomCOO(rng, 192, 128, 5000))
	bm := partition(t, cfg, mat.RandomCOO(rng, 128, 160, 4500))
	cat := loadCatalog(t, cfg, map[string]*core.ATMatrix{"a": am, "b": bm})
	a := acquireMatrix(t, cat, "a")
	b := acquireMatrix(t, cat, "b")

	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("local multiply: %v", err)
	}

	hc := testClient(t)
	started := make(chan struct{})
	dead := make(chan struct{})
	var once sync.Once
	victimAddr, victimSrv := startWorker(t, cfg, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			select {
			case <-dead:
				// Post-kill requests never reach a live worker.
				return
			default:
			}
			if r.URL.Path == "/cluster/v1/exec" {
				once.Do(func() { close(started) })
				select {
				case <-r.Context().Done():
				case <-dead:
				}
				return
			}
			inner.ServeHTTP(rw, r)
		})
	})
	addr2, _ := startWorker(t, cfg, nil)
	addr3, _ := startWorker(t, cfg, nil)

	coord := NewCoordinator(cfg, shardedOptions(hc), []string{victimAddr, addr2, addr3})
	defer coord.Close()
	coord.AttachCatalog(cat)
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if err := coord.ShardByName(ctx, name); err != nil {
			t.Fatalf("sharding %s: %v", name, err)
		}
	}

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-started
		_ = victimSrv.Close()
		close(dead)
	}()

	opts := core.DefaultMultOptions()
	opts.Verify = 2
	dist, _, err := coord.Multiply("a", "b", a, b, opts)
	<-killed
	if err != nil {
		t.Fatalf("multiply with killed primary: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("product after primary kill is not byte-identical to local execution")
	}
	if s := coord.Stats(); s.MergePeakBytes > coord.opts.MergeWindow {
		t.Fatalf("merge peak %d exceeded the %d-byte window", s.MergePeakBytes, coord.opts.MergeWindow)
	}

	// Walk the victim's health to dead (the in-multiply transport failures
	// started this; finish deterministically) and check the gauges see the
	// lost replicas.
	coord.mu.Lock()
	var victim *RemoteTeam
	for _, rt := range coord.teams {
		if rt.addr == newRemoteTeam(victimAddr, nil).addr {
			victim = rt
		}
	}
	coord.mu.Unlock()
	if victim == nil {
		t.Fatal("victim not registered")
	}
	for i := 0; i < coord.opts.DeadAfter; i++ {
		coord.observeHealth(victim, false)
	}
	s := coord.Stats()
	if s.UnderReplicatedShards == 0 {
		t.Fatalf("stats = %+v, want under-replicated shards after the kill", s)
	}

	// One anti-entropy pass re-replicates from the catalog's durable copy
	// and re-homes the victim's primaries onto surviving replicas.
	if _, err := coord.RepairPass(ctx); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	s = coord.Stats()
	if s.ReReplications == 0 {
		t.Fatalf("stats = %+v, want re-replications restoring R", s)
	}
	if s.UnderReplicatedShards != 0 {
		t.Fatalf("stats = %+v, want replication restored to R after repair", s)
	}
	for _, sm := range []string{"a", "b"} {
		m := coord.shardMapFor(sm)
		for _, meta := range m.Shards {
			if meta.Primary == victim.addr {
				t.Fatalf("shard %d of %s still homed on the dead worker", meta.ID, sm)
			}
		}
	}

	// The repaired cluster still serves byte-identical products without the
	// victim.
	dist, _, err = coord.Multiply("a", "b", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply after repair: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("post-repair product is not byte-identical to local execution")
	}
}

// TestShardCRCMismatchSurfacesChecksum corrupts the recorded shard
// fingerprints: every reference the workers hold now mismatches (they
// refuse to compute on it and report the shard missing), and the inline
// refill fails its own CRC verification against the map — the multiply
// must surface core.ErrChecksum, the service layer's quarantine signal,
// instead of degrading to a silent local product.
func TestShardCRCMismatchSurfacesChecksum(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(73))
	am := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2200))
	bm := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2000))
	cat := loadCatalog(t, cfg, map[string]*core.ATMatrix{"a": am, "b": bm})
	a := acquireMatrix(t, cat, "a")
	b := acquireMatrix(t, cat, "b")

	hc := testClient(t)
	addr1, _ := startWorker(t, cfg, nil)
	addr2, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, shardedOptions(hc), []string{addr1, addr2})
	defer coord.Close()
	coord.AttachCatalog(cat)
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if err := coord.ShardByName(ctx, name); err != nil {
			t.Fatalf("sharding %s: %v", name, err)
		}
	}

	// Poison the recorded fingerprints of A's shards, as if the map (or the
	// matrix under it) rotted after placement.
	sm := coord.shardMapFor("a")
	for i := range sm.Shards {
		sm.Shards[i].CRC32C ^= 0xdeadbeef
	}
	coord.shardMu.Lock()
	coord.shardMaps["a"] = sm
	coord.shardMu.Unlock()

	_, _, err := coord.Multiply("a", "b", a, b, core.DefaultMultOptions())
	if err == nil {
		t.Fatal("multiply succeeded though every shard fingerprint mismatches")
	}
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("error %v does not carry core.ErrChecksum", err)
	}
	if s := coord.Stats(); s.LocalTasks != 0 {
		t.Fatalf("stats = %+v, corrupt shards must not silently degrade to local tasks", s)
	}
}

// TestRepairPassDropsCorruptRemoteCopy flips a bit in a matrix a worker
// stores and multiplies: the anti-entropy pass's seal-verified inventory
// must catch the rot, drop the damaged remote copy, and re-replicate a
// fresh one, with the corruption visible in the stats.
func TestRepairPassDropsCorruptRemoteCopy(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(74))
	am := partition(t, cfg, mat.RandomCOO(rng, 128, 96, 3000))
	bm := partition(t, cfg, mat.RandomCOO(rng, 96, 112, 2500))
	cat := loadCatalog(t, cfg, map[string]*core.ATMatrix{"a": am, "b": bm})
	a := acquireMatrix(t, cat, "a")
	b := acquireMatrix(t, cat, "b")

	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Workers built directly so the test can reach into one store.
	hc := testClient(t)
	workers := make([]*Worker, 3)
	var peers []string
	for i := range workers {
		workers[i] = NewWorker(cfg)
		mux := http.NewServeMux()
		workers[i].Register(mux)
		srv := &http.Server{Handler: mux}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close(); <-done })
		peers = append(peers, ln.Addr().String())
	}
	coord := NewCoordinator(cfg, shardedOptions(hc), peers)
	defer coord.Close()
	coord.AttachCatalog(cat)
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if err := coord.ShardByName(ctx, name); err != nil {
			t.Fatalf("sharding %s: %v", name, err)
		}
	}

	// Flip one bit in some stored shard replica of "a".
	corrupted := false
	for _, w := range workers {
		w.store.mu.Lock()
		for key, ss := range w.store.shards {
			if key.Name == "a" && !corrupted {
				corrupted = ss.m.FlipOneBit()
			}
		}
		w.store.mu.Unlock()
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("no stored shard of a found on any worker")
	}

	if _, err := coord.RepairPass(ctx); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	s := coord.Stats()
	if s.ShardCRCFailures == 0 {
		t.Fatalf("stats = %+v, want the rotted remote copy detected", s)
	}
	if s.ReReplications == 0 {
		t.Fatalf("stats = %+v, want the dropped copy re-replicated", s)
	}
	if s.UnderReplicatedShards != 0 {
		t.Fatalf("stats = %+v, want replication restored after repair", s)
	}

	dist, _, err := coord.Multiply("a", "b", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply after scrub repair: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("post-scrub product is not byte-identical to local execution")
	}
}

// TestMergeGateWindow exercises the bounded reassembly window: admissions
// beyond the cap block until a release, an oversized frame is admitted
// alone rather than deadlocking, the peak never exceeds the cap for
// in-budget frames, and a cancelled waiter returns the context error.
func TestMergeGateWindow(t *testing.T) {
	g := newMergeGate(100)
	ctx := context.Background()

	rel1, err := g.acquire(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	// 60+50 > 100: the second acquire must block until the first releases.
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		rel2, err := g.acquire(ctx, 50)
		if err != nil {
			t.Error(err)
			return
		}
		rel2()
	}()
	select {
	case <-blocked:
		t.Fatal("second acquire did not block with the window full")
	case <-time.After(20 * time.Millisecond):
	}
	rel1()
	rel1() // idempotent
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("blocked acquire never admitted after release")
	}
	if p := g.peakBytes(); p > 100 {
		t.Fatalf("peak %d exceeded cap 100", p)
	}

	// Oversized frame: admitted alone (degrades to serial merging).
	relBig, err := g.acquire(ctx, 1000)
	if err != nil {
		t.Fatalf("oversized acquire: %v", err)
	}
	// And while it is in flight, others wait — including across a cancel.
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(cctx, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire under full window = %v, want deadline exceeded", err)
	}
	relBig()
}

// TestRepairLoopStopsClean runs the real anti-entropy loop — every other
// test disables it and calls RepairPass directly — until it has completed
// a pass on its own timer, then closes the coordinator: Close must stop the
// goroutine AttachCatalog started.
func TestRepairLoopStopsClean(t *testing.T) {
	leakcheck.Check(t)
	cfg := testCfg()
	opts := testOptions(testClient(t))
	opts.RepairPeriod = 5 * time.Millisecond
	coord := NewCoordinator(cfg, opts, nil)
	coord.AttachCatalog(loadCatalog(t, cfg, nil))
	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().RepairPasses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("repair loop never ran a pass")
		}
		time.Sleep(time.Millisecond)
	}
	coord.Close()
	coord.Close() // idempotent
}

// TestShardFingerprintsDiffer: the fingerprint a shard map records is the
// shard stream's footer CRC, so different shards of one matrix record
// different values — not the one constant a CRC over the footer too would
// give every stream.
func TestShardFingerprintsDiffer(t *testing.T) {
	cfg := testCfg()
	m := partition(t, cfg, mat.RandomCOO(rand.New(rand.NewSource(75)), 128, 96, 3000))
	cuts, err := cutShards(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) < 2 {
		t.Fatalf("%d shards, want several", len(cuts))
	}
	seen := map[uint32]int{}
	for _, c := range cuts {
		if prev, ok := seen[c.meta.CRC32C]; ok {
			t.Fatalf("shards %d and %d both record %08x", prev, c.meta.ID, c.meta.CRC32C)
		}
		seen[c.meta.CRC32C] = c.meta.ID
	}
}

// TestRegenShardRefusesDamagedCopy: a bit flipped in the coordinator's copy
// of a matrix changes the regenerated shard's footer, so regenShard refuses
// to ship it instead of laundering it into the cluster.
func TestRegenShardRefusesDamagedCopy(t *testing.T) {
	cfg := testCfg()
	m := partition(t, cfg, mat.RandomCOO(rand.New(rand.NewSource(76)), 96, 96, 2000))
	cuts, err := cutShards(m, 1)
	if err != nil || len(cuts) != 1 {
		t.Fatalf("cutShards: %d cuts, %v", len(cuts), err)
	}
	meta := cuts[0].meta
	key := ShardKey{Name: "a", Gen: 1, Shard: meta.ID}
	if _, err := regenShard(m, key, meta.Bands, meta.CRC32C); err != nil {
		t.Fatalf("intact copy: %v", err)
	}
	if !m.FlipOneBit() {
		t.Fatal("nothing to flip")
	}
	if data, err := regenShard(m, key, meta.Bands, meta.CRC32C); !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("damaged copy: %d bytes, error %v, want core.ErrChecksum", len(data), err)
	}
}

// TestRecoverResidueManifest recovers a durable catalog written before shard
// fingerprints were footer CRCs (testdata/compat: one matrix, a two-shard
// map whose every shard records mmio.Residue). The map identifies nothing,
// so it is dropped: a coordinator over the recovered catalog cuts ephemeral
// shards, multiplies byte-identically to local and counts no CRC failure.
func TestRecoverResidueManifest(t *testing.T) {
	cfg := testCfg()
	dir := t.TempDir()
	for _, name := range []string{"manifest.json", "ca978112ca1bbdca-1.atm"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "compat", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := catalog.Open(cfg, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat.Close)
	if rs, err := cat.Recover(); err != nil || rs.Registered != 1 {
		t.Fatalf("recover: %+v, %v", rs, err)
	}
	if maps := cat.ShardMaps(); len(maps) != 0 {
		t.Fatalf("recovered shard maps %v, want the residue map dropped", maps)
	}
	a := acquireMatrix(t, cat, "a")
	local, _, err := core.MultiplyOpt(a, a, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hc := testClient(t)
	addr1, _ := startWorker(t, cfg, nil)
	addr2, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, shardedOptions(hc), []string{addr1, addr2})
	defer coord.Close()
	coord.AttachCatalog(cat)
	dist, _, err := coord.Multiply("a", "a", a, a, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply over the recovered catalog: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("product over the recovered catalog is not byte-identical to local execution")
	}
	if _, err := coord.RepairPass(context.Background()); err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	if s := coord.Stats(); s.ShardCRCFailures != 0 || s.RemoteMultiplies != 1 {
		t.Fatalf("stats = %+v, want one remote multiply and no CRC failure", s)
	}
}
