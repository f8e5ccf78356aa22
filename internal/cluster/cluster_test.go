package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"atmatrix/internal/alloccheck"
	"atmatrix/internal/core"
	"atmatrix/internal/leakcheck"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// testCfg mirrors the core test configuration: 64×64 dense tile cap,
// atomic blocks of 8, two 2-core sockets.
func testCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2
	return cfg
}

// testOptions disables the background heartbeat loop (health moves only on
// RPC outcomes, keeping tests deterministic) and tightens the retry knobs.
func testOptions(hc *http.Client) Options {
	return Options{
		HeartbeatPeriod: -1,
		RPCTimeout:      30 * time.Second,
		MaxRetries:      1,
		RetryBase:       2 * time.Millisecond,
		RetryMax:        10 * time.Millisecond,
		Client:          hc,
	}
}

// testClient returns an HTTP client with a private transport so idle
// connections can be torn down before the leak check asserts.
func testClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

func partition(t *testing.T, cfg core.Config, src *mat.COO) *core.ATMatrix {
	t.Helper()
	m, _, err := core.Partition(src, cfg)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return m
}

// startWorker serves a fresh cluster worker on loopback and returns its
// address. wrap, when non-nil, interposes on the worker's handler (used by
// the chaos tests to delay, corrupt or hang RPCs). The returned server is
// closed at cleanup; tests that kill it earlier close it themselves.
func startWorker(t *testing.T, cfg core.Config, wrap func(http.Handler) http.Handler) (string, *http.Server) {
	t.Helper()
	return serveWorker(t, NewWorker(cfg), wrap)
}

// serveWorker is startWorker for a worker the test keeps a handle on. Every
// worker a test serves is checked at cleanup: whatever the multiplies'
// outcomes were, no ephemeral shard may be left in its store.
func serveWorker(t *testing.T, w *Worker, wrap func(http.Handler) http.Handler) (string, *http.Server) {
	t.Helper()
	mux := http.NewServeMux()
	w.Register(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
		for _, e := range w.Store().Inventory() {
			if e.ephemeral() {
				t.Errorf("worker %s still holds ephemeral shard %s", ln.Addr(), e.ShardKey)
			}
		}
	})
	return ln.Addr().String(), srv
}

// storedShards sums the workers' store sizes.
func storedShards(workers []*Worker) int {
	n := 0
	for _, w := range workers {
		n += w.Store().Len()
	}
	return n
}

func serializeATM(t *testing.T, m *core.ATMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

func TestHealthStateMachine(t *testing.T) {
	var h health
	if s, _ := h.current(); s != Healthy {
		t.Fatalf("initial state = %v, want healthy", s)
	}
	if s := h.observe(false, 1, 3); s != Suspect {
		t.Fatalf("after 1 miss: %v, want suspect", s)
	}
	if s := h.observe(false, 1, 3); s != Suspect {
		t.Fatalf("after 2 misses: %v, want suspect", s)
	}
	if s := h.observe(false, 1, 3); s != Dead {
		t.Fatalf("after 3 misses: %v, want dead", s)
	}
	// A success revives even a dead worker and clears the miss history.
	if s := h.observe(true, 1, 3); s != Healthy {
		t.Fatalf("after success: %v, want healthy", s)
	}
	if _, misses := h.current(); misses != 0 {
		t.Fatalf("misses after success = %d, want 0", misses)
	}
	if s := h.observe(false, 2, 3); s != Healthy {
		t.Fatalf("single miss under suspectAfter=2: %v, want healthy", s)
	}
}

// realExecHeader is a header as the coordinator sends it: one A shard, a
// two-shard B with its canonical-order tile indices.
func realExecHeader() execHeader {
	return execHeader{
		BAtomic: 8, WriteThreshold: 0.25,
		ARefs: []shardRef{{ShardKey: ShardKey{Name: "a", Gen: 7, Shard: 1}, CRC: 0xfeedbeef, Bytes: 4096}},
		BRefs: []shardRef{
			{ShardKey: ShardKey{Name: "b", Gen: -3, Shard: 0}, CRC: 1, Bytes: 100, TileIdx: []int{0, 2, 3}},
			{ShardKey: ShardKey{Name: "b", Gen: -3, Shard: 1}, CRC: 2, Bytes: 200, TileIdx: []int{1, 2}},
		},
	}
}

func TestExecFrameRoundTrip(t *testing.T) {
	hdr := realExecHeader()
	body, err := encodeExecHeader(hdr)
	if err != nil {
		t.Fatalf("encodeExecHeader: %v", err)
	}
	if !json.Valid(body) {
		t.Fatalf("exec body is not one JSON value: %q", body)
	}
	got, err := decodeExecHeader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decodeExecHeader: %v", err)
	}
	if !reflect.DeepEqual(got, hdr) {
		t.Fatalf("header round-trip: got %+v, want %+v", got, hdr)
	}
}

func TestExecFrameRejectsBadHeader(t *testing.T) {
	mutate := func(f func(*execHeader)) []byte {
		hdr := realExecHeader()
		f(&hdr)
		body, err := json.Marshal(hdr)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	good := mutate(func(*execHeader) {})
	cases := map[string][]byte{
		"non-power-of-two b_atomic": mutate(func(h *execHeader) { h.BAtomic = 12 }),
		"zero b_atomic":             mutate(func(h *execHeader) { h.BAtomic = 0 }),
		"oversized b_atomic":        mutate(func(h *execHeader) { h.BAtomic = 1 << 21 }),
		"negative bytes":            mutate(func(h *execHeader) { h.BRefs[1].Bytes = -1 }),
		"negative shard":            mutate(func(h *execHeader) { h.ARefs[0].Shard = -1 }),
		"negative tile index":       mutate(func(h *execHeader) { h.BRefs[0].TileIdx[1] = -2 }),
		"no A references":           mutate(func(h *execHeader) { h.ARefs = nil }),
		"no B references":           mutate(func(h *execHeader) { h.BRefs = nil }),
		"trailing bytes":            append(append([]byte(nil), good...), "{}"...),
		"truncated":                 good[:len(good)/2],
		"at the size limit":         append(append([]byte(nil), good...), bytes.Repeat([]byte(" "), maxHeaderBytes-len(good))...),
	}
	for name, body := range cases {
		if _, err := decodeExecHeader(bytes.NewReader(body)); err == nil {
			t.Errorf("%s: decodeExecHeader accepted the header", name)
		}
	}
	if _, err := decodeExecHeader(bytes.NewReader(good)); err != nil {
		t.Fatalf("unmutated header rejected: %v", err)
	}
}

// countingReader counts the bytes handed out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzDecodeExecHeader throws arbitrary bytes at the one decoder a worker
// exposes to exec requests: it must not panic, must not read past
// maxHeaderBytes or allocate more than 256·len(data) + 64 KiB (a three-byte
// "{}," costs one 72-byte shardRef in a slice whose every growth step is
// charged: ≈ 140× measured on 100 000 of them), and
// whatever it accepts must satisfy the bounds the worker relies on and
// survive its own encoder unchanged.
func FuzzDecodeExecHeader(f *testing.F) {
	good, err := encodeExecHeader(realExecHeader())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(`"b_atomic":8`), []byte(`"b_atomic":12`), 1))
	f.Add(bytes.Replace(good, []byte(`"bytes":200`), []byte(`"bytes":-200`), 1))
	f.Add(bytes.Replace(good, []byte(`[1,2]`), []byte(`[1,-2]`), 1))
	f.Add(bytes.Replace(good, []byte(`"shard":1`), []byte(`"shard":-1`), 1))
	f.Add([]byte(`{"b_atomic":1e999}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		var hdr execHeader
		var err error
		alloccheck.Bound(t, len(data), 256, 64<<10, func() {
			hdr, err = decodeExecHeader(cr)
		})
		if cr.n > maxHeaderBytes {
			t.Fatalf("decoder read %d bytes, limit %d", cr.n, maxHeaderBytes)
		}
		if err != nil {
			return
		}
		if hdr.BAtomic <= 0 || hdr.BAtomic > 1<<20 || hdr.BAtomic&(hdr.BAtomic-1) != 0 {
			t.Fatalf("accepted b_atomic %d", hdr.BAtomic)
		}
		if len(hdr.ARefs) == 0 || len(hdr.BRefs) == 0 {
			t.Fatalf("accepted a header without both operands: %+v", hdr)
		}
		for _, ref := range append(append([]shardRef(nil), hdr.ARefs...), hdr.BRefs...) {
			if ref.Shard < 0 || ref.Bytes < 0 {
				t.Fatalf("accepted reference %+v", ref)
			}
			if len(ref.TileIdx) > maxHeaderBytes/2 {
				t.Fatalf("accepted %d tile indices under a %d-byte header limit", len(ref.TileIdx), maxHeaderBytes)
			}
			for _, idx := range ref.TileIdx {
				if idx < 0 {
					t.Fatalf("accepted negative tile index in %+v", ref)
				}
			}
		}
		canon, err := encodeExecHeader(hdr)
		if err != nil {
			t.Fatalf("cannot re-encode accepted header: %v", err)
		}
		back, err := decodeExecHeader(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("cannot re-read own header: %v\n%s", err, canon)
		}
		if again, _ := encodeExecHeader(back); !bytes.Equal(again, canon) {
			t.Fatalf("header is not stable under its own encoder:\n%s\n--- vs ---\n%s", canon, again)
		}
	})
}

// TestDistributedMatchesLocal is the core transparency claim, over every
// way an operand can come to the one transport: a multiply sharded over
// three workers yields a byte-identical .atm stream to the single-node
// operator whether each operand has a recorded shard map, none, or one
// that no longer fits its band grid — and every exec request is a JSON
// header, never operand bytes.
func TestDistributedMatchesLocal(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(41))
	am := partition(t, cfg, mat.RandomCOO(rng, 160, 128, 4000))
	bm := partition(t, cfg, mat.RandomCOO(rng, 128, 144, 3500))
	local, _, err := core.MultiplyOpt(am, bm, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("local multiply: %v", err)
	}
	want := serializeATM(t, local)

	cases := []struct {
		name      string
		sharded   []string // names sharded at PUT time
		noCatalog bool     // no catalog attached, operands unnamed
		stale     string   // name whose recorded map is bent off the band grid
		// wantEphemeral is how many operands must be cut for the multiply.
		wantEphemeral int64
	}{
		{name: "both sharded", sharded: []string{"a", "b"}},
		{name: "A only", sharded: []string{"a"}, wantEphemeral: 1},
		{name: "B only", sharded: []string{"b"}, wantEphemeral: 1},
		{name: "neither", wantEphemeral: 2},
		{name: "no catalog attached", noCatalog: true, wantEphemeral: 2},
		{name: "recorded map stale for the band grid", sharded: []string{"a", "b"}, stale: "a", wantEphemeral: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				bodies [][]byte
			)
			capture := func(inner http.Handler) http.Handler {
				return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/cluster/v1/exec" {
						body, _ := io.ReadAll(r.Body)
						mu.Lock()
						bodies = append(bodies, body)
						mu.Unlock()
						r.Body = io.NopCloser(bytes.NewReader(body))
					}
					inner.ServeHTTP(rw, r)
				})
			}
			workers := make([]*Worker, 3)
			var peers []string
			for i := range workers {
				workers[i] = NewWorker(cfg)
				addr, _ := serveWorker(t, workers[i], capture)
				peers = append(peers, addr)
			}
			coord := NewCoordinator(cfg, shardedOptions(testClient(t)), peers)
			defer coord.Close()

			a, b, aName, bName := am, bm, "", ""
			if !tc.noCatalog {
				cat := loadCatalog(t, cfg, map[string]*core.ATMatrix{"a": am, "b": bm})
				coord.AttachCatalog(cat)
				a, b, aName, bName = acquireMatrix(t, cat, "a"), acquireMatrix(t, cat, "b"), "a", "b"
				for _, name := range tc.sharded {
					if err := coord.ShardByName(context.Background(), name); err != nil {
						t.Fatalf("sharding %s: %v", name, err)
					}
				}
			}
			if tc.stale != "" {
				sm := coord.shardMapFor(tc.stale)
				sm.Shards[0].Bands[0] = len(a.RowBands())
				coord.shardMu.Lock()
				coord.shardMaps[tc.stale] = sm
				coord.shardMu.Unlock()
			}
			before := storedShards(workers)

			dist, stats, err := coord.Multiply(aName, bName, a, b, core.DefaultMultOptions())
			if err != nil {
				t.Fatalf("distributed multiply: %v", err)
			}
			if err := dist.Validate(); err != nil {
				t.Fatalf("distributed result invalid: %v", err)
			}
			if !bytes.Equal(serializeATM(t, dist), want) {
				t.Fatal("distributed product is not byte-identical to the local product")
			}
			if stats.Contributions == 0 {
				t.Fatal("no contributions aggregated from workers")
			}
			s := coord.Stats()
			if s.RemoteMultiplies != 1 || s.LocalFallbacks != 0 || s.LocalTasks != 0 {
				t.Fatalf("stats = %+v, want exactly one remote multiply and no local work", s)
			}
			if s.WorkersHealthy != 3 {
				t.Fatalf("workers healthy = %d, want 3", s.WorkersHealthy)
			}
			if s.TilesRerouted != 0 {
				t.Fatalf("tiles rerouted = %d, want 0 with all workers up", s.TilesRerouted)
			}
			if got := coord.ephemeralSeq.Load(); got != tc.wantEphemeral {
				t.Fatalf("%d operands cut into ephemeral shards, want %d", got, tc.wantEphemeral)
			}
			if tc.wantEphemeral == 2 {
				// Nothing recorded: the stores are back where they started.
				// (A recorded shard filled into a worker stays there as an
				// opportunistic replica, so the mixed cases may grow.)
				if after := storedShards(workers); after != before {
					t.Fatalf("workers hold %d shards after the multiply, %d before", after, before)
				}
			}
			if len(bodies) == 0 {
				t.Fatal("no exec request captured")
			}
			for _, body := range bodies {
				if !json.Valid(body) {
					t.Fatalf("exec request body is not one JSON value (%d bytes)", len(body))
				}
			}
		})
	}
}

// TestDistributedEmptyOperand multiplies by an operand without tiles: it
// cuts into no shards, so there is nothing to execute and the product is
// the empty matrix the local operator returns.
func TestDistributedEmptyOperand(t *testing.T) {
	cfg := testCfg()
	rng := rand.New(rand.NewSource(42))
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 48, 600))
	empty := partition(t, cfg, mat.NewCOO(48, 56))
	local, _, err := core.MultiplyOpt(a, empty, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("local multiply: %v", err)
	}
	addr, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, testOptions(testClient(t)), []string{addr})
	defer coord.Close()
	dist, _, err := coord.Multiply("", "", a, empty, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("distributed multiply: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("distributed product of an empty operand differs from the local product")
	}
	if s := coord.Stats(); s.RemoteMultiplies != 1 || s.LocalTasks != 0 {
		t.Fatalf("stats = %+v, want a distributed multiply with nothing degraded to local tasks", s)
	}
}

// TestDistributedVerifyAndRevalidate runs the distributed multiply with
// Freivalds verification enabled and re-checks the product against the
// dense reference.
func TestDistributedVerifyAndRevalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := testCfg()
	aCOO := mat.RandomCOO(rng, 96, 96, 2500)
	bCOO := mat.RandomCOO(rng, 96, 96, 2500)
	a := partition(t, cfg, aCOO)
	b := partition(t, cfg, bCOO)

	hc := testClient(t)
	addr1, _ := startWorker(t, cfg, nil)
	addr2, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, testOptions(hc), []string{addr1, addr2})
	defer coord.Close()

	opts := core.DefaultMultOptions()
	opts.Verify = 2
	dist, stats, err := coord.Multiply("", "", a, b, opts)
	if err != nil {
		t.Fatalf("distributed multiply with verify: %v", err)
	}
	if stats.VerifyTime <= 0 {
		t.Fatal("verification did not run")
	}
	want := mat.MulReference(aCOO.ToDense(), bCOO.ToDense())
	if !dist.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("distributed product differs from dense reference")
	}
}

// TestCoordinatorNoWorkersFallsBackLocal covers the degenerate cluster: a
// coordinator with an empty registry executes locally and says so.
func TestCoordinatorNoWorkersFallsBackLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cfg := testCfg()
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 800))
	b := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 800))

	coord := NewCoordinator(cfg, testOptions(testClient(t)), nil)
	defer coord.Close()
	out, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("fallback multiply: %v", err)
	}
	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeATM(t, out), serializeATM(t, local)) {
		t.Fatal("fallback product differs from local product")
	}
	if s := coord.Stats(); s.LocalFallbacks != 1 || s.RemoteMultiplies != 0 {
		t.Fatalf("stats = %+v, want one local fallback", s)
	}
}

// TestCoordinatorRegisterIdempotent checks registration dedup and the
// health report plumbing.
func TestCoordinatorRegisterIdempotent(t *testing.T) {
	coord := NewCoordinator(testCfg(), testOptions(testClient(t)), []string{"127.0.0.1:9001"})
	defer coord.Close()
	if coord.Register("127.0.0.1:9001") {
		t.Fatal("re-registering the same address reported new")
	}
	if !coord.Register("127.0.0.1:9002") {
		t.Fatal("registering a second address reported known")
	}
	ws := coord.Workers()
	if len(ws) != 2 {
		t.Fatalf("workers = %d, want 2", len(ws))
	}
	for _, w := range ws {
		if w.State != "healthy" || w.Misses != 0 {
			t.Fatalf("fresh worker status = %+v, want healthy/0", w)
		}
	}
}

// TestCoordinatorHeartbeatMarksDead runs the real heartbeat loop against
// one live worker and one dead address and waits for the states to settle.
func TestCoordinatorHeartbeatMarksDead(t *testing.T) {
	leakcheck.Check(t) // Close must stop the loop it started
	cfg := testCfg()
	hc := testClient(t)
	addr, _ := startWorker(t, cfg, nil)

	// A listener that is immediately closed: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	opts := testOptions(hc)
	opts.HeartbeatPeriod = 10 * time.Millisecond
	opts.HeartbeatTimeout = 250 * time.Millisecond
	opts.DeadAfter = 2
	coord := NewCoordinator(cfg, opts, []string{addr, deadAddr})
	defer coord.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := coord.Workers()
		if ws[0].State == "healthy" && ws[1].State == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health did not settle: %+v", ws)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := coord.Stats()
	if s.WorkersHealthy != 1 || s.WorkersDead != 1 {
		t.Fatalf("gauges = %+v, want 1 healthy / 1 dead", s)
	}
}

// TestMain tears the shared scheduler runtime down after the package's
// tests so its worker goroutines never count against another package's
// leak accounting.
func TestMain(m *testing.M) {
	code := m.Run()
	sched.RuntimeFor(testCfg().Topology).Close()
	os.Exit(code)
}
