package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/leakcheck"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// chaosOperands prepares one drill's operands on a coordinator: as given
// and unnamed (cut into ephemeral shards per multiply), or — sharded —
// loaded into a catalog and sharded at PUT time, the way production atserve
// runs. Both must survive every drill identically.
func chaosOperands(t *testing.T, coord *Coordinator, cfg core.Config, sharded bool, am, bm *core.ATMatrix) (aName, bName string, a, b *core.ATMatrix) {
	t.Helper()
	if !sharded {
		return "", "", am, bm
	}
	cat := loadCatalog(t, cfg, map[string]*core.ATMatrix{"a": am, "b": bm})
	coord.AttachCatalog(cat)
	for _, name := range []string{"a", "b"} {
		if err := coord.ShardByName(context.Background(), name); err != nil {
			t.Fatalf("sharding %s: %v", name, err)
		}
	}
	return "a", "b", acquireMatrix(t, cat, "a"), acquireMatrix(t, cat, "b")
}

// forEachTransport runs a drill once with unnamed operands and once with
// operands sharded at PUT time.
func forEachTransport(t *testing.T, drill func(t *testing.T, sharded bool)) {
	t.Run("ephemeral", func(t *testing.T) { drill(t, false) })
	t.Run("sharded", func(t *testing.T) { drill(t, true) })
}

// TestClusterChaosKillWorkerMidMultiply is the kill-9 drill: a
// three-worker cluster loses one worker in the middle of a distributed
// ATMULT — its connections are severed while it holds shard tasks — and
// the multiply must still return a product byte-identical to single-node
// execution (Freivalds on), with the victim's tile-rows accounted as
// re-routed and no goroutine left behind.
func TestClusterChaosKillWorkerMidMultiply(t *testing.T) {
	forEachTransport(t, func(t *testing.T, sharded bool) {
		cfg := testCfg()
		sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
		leakcheck.Check(t)
		rng := rand.New(rand.NewSource(51))
		am := partition(t, cfg, mat.RandomCOO(rng, 192, 128, 5000))
		bm := partition(t, cfg, mat.RandomCOO(rng, 128, 160, 4500))

		local, _, err := core.MultiplyOpt(am, bm, cfg, core.DefaultMultOptions())
		if err != nil {
			t.Fatalf("local multiply: %v", err)
		}

		hc := testClient(t)
		// The victim's exec handler signals arrival and then hangs until the
		// kill; the killer then severs every connection, kill-9 style, so the
		// in-flight RPC dies at the transport layer.
		started := make(chan struct{})
		dead := make(chan struct{})
		var once sync.Once
		victimAddr, victimSrv := startWorker(t, cfg, func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/cluster/v1/exec" {
					once.Do(func() { close(started) })
					// Hold the RPC until the kill; dead closes strictly after
					// the connections are severed, so nothing coherent is ever
					// written back.
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
		aName, bName, a, b := chaosOperands(t, coord, cfg, sharded, am, bm)

		killed := make(chan struct{})
		go func() {
			defer close(killed)
			<-started
			_ = victimSrv.Close()
			close(dead)
		}()

		opts := core.DefaultMultOptions()
		opts.Verify = 2
		dist, _, err := coord.Multiply(aName, bName, a, b, opts)
		<-killed
		if err != nil {
			t.Fatalf("multiply with killed worker: %v", err)
		}
		if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
			t.Fatal("product after worker loss is not byte-identical to local execution")
		}
		s := coord.Stats()
		if s.TilesRerouted == 0 {
			t.Fatalf("stats = %+v, want re-routed tile-rows after the kill", s)
		}
		if s.RemoteMultiplies != 1 {
			t.Fatalf("remote multiplies = %d, want 1", s.RemoteMultiplies)
		}
	})
}

// TestClusterChaosAllWorkersDownFallsBackLocal points the coordinator at
// nothing but dead addresses: every task degrades to local execution and
// the result is still byte-identical.
func TestClusterChaosAllWorkersDownFallsBackLocal(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(52))
	a := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2000))
	b := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2000))

	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}

	var peers []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, ln.Addr().String())
		ln.Close()
	}
	opts := testOptions(testClient(t))
	opts.MaxRetries = 0
	coord := NewCoordinator(cfg, opts, peers)
	defer coord.Close()

	dist, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply with all workers down: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("degraded product differs from local execution")
	}
	s := coord.Stats()
	if s.LocalTasks == 0 {
		t.Fatalf("stats = %+v, want tasks executed locally", s)
	}
	// Enough transport failures accumulate during the multiply to walk
	// both workers' health to dead without any heartbeat loop.
	if s.WorkersDead != 2 {
		t.Fatalf("workers dead = %d, want 2: %+v", s.WorkersDead, coord.Workers())
	}
}

// TestClusterChaosCorruptTransferReroutes damages every product stream one
// worker emits — a wire-corruption double of the bitflip drills — and
// checks the CRC-32C footer catches it, the task re-routes to the clean
// worker, and the product survives byte-identical.
func TestClusterChaosCorruptTransferReroutes(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(54))
	a := partition(t, cfg, mat.RandomCOO(rng, 96, 80, 2200))
	b := partition(t, cfg, mat.RandomCOO(rng, 80, 96, 2000))

	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}

	hc := testClient(t)
	corruptAddr, _ := startWorker(t, cfg, corruptingWrapper())
	cleanAddr, _ := startWorker(t, cfg, nil)

	coord := NewCoordinator(cfg, testOptions(hc), []string{corruptAddr, cleanAddr})
	defer coord.Close()

	dist, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply with corrupting worker: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("product assembled around corrupt transfers differs from local execution")
	}
	if s := coord.Stats(); s.TilesRerouted == 0 {
		t.Fatalf("stats = %+v, want re-routes away from the corrupting worker", s)
	}
}

// TestClusterChaosAllTransfersCorruptSurfacesChecksum corrupts every
// worker's product stream: the coordinator must refuse to mask the damage
// with a silent local fallback and instead surface core.ErrChecksum, the
// signal the service layer quarantines the operand combination on.
func TestClusterChaosAllTransfersCorruptSurfacesChecksum(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(55))
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1200))
	b := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1200))

	hc := testClient(t)
	workers := []*Worker{NewWorker(cfg), NewWorker(cfg)}
	addr1, _ := serveWorker(t, workers[0], corruptingWrapper())
	addr2, _ := serveWorker(t, workers[1], corruptingWrapper())

	coord := NewCoordinator(cfg, testOptions(hc), []string{addr1, addr2})
	defer coord.Close()

	_, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err == nil {
		t.Fatal("multiply succeeded though every transfer was corrupt")
	}
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("error %v does not carry core.ErrChecksum", err)
	}
	s := coord.Stats()
	if s.LocalTasks != 0 {
		t.Fatalf("stats = %+v, corrupt transfers must not silently degrade to local tasks", s)
	}
	// Every worker was sent the operands' ephemeral shards before its
	// product stream failed; the failed multiply must not leave them.
	if s.ShardShips == 0 {
		t.Fatalf("stats = %+v, want the unnamed operands uploaded before the failures", s)
	}
	if n := storedShards(workers); n != 0 {
		t.Fatalf("workers hold %d shards after the failed multiply, want 0", n)
	}
}

// TestClusterChaosCancelMidMultiplyDropsEphemeral cancels a multiply of
// unnamed operands while its tasks execute — after the workers were sent
// the ephemeral shards — and checks the multiply returns the context error
// with the worker stores back at their pre-multiply size.
func TestClusterChaosCancelMidMultiplyDropsEphemeral(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(61))
	a := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2000))
	b := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2000))

	// An exec that finds its shards in the store hangs until the caller
	// gives up; the 409 round that triggers the uploads passes through.
	executing := make(chan struct{})
	var once sync.Once
	workers := []*Worker{NewWorker(cfg), NewWorker(cfg)}
	var peers []string
	for _, w := range workers {
		w := w
		addr, _ := serveWorker(t, w, func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/cluster/v1/exec" && w.Store().Len() > 0 {
					once.Do(func() { close(executing) })
					// The server only notices the caller hanging up once
					// the request body has been read.
					_, _ = io.Copy(io.Discard, r.Body)
					<-r.Context().Done()
					return
				}
				inner.ServeHTTP(rw, r)
			})
		})
		peers = append(peers, addr)
	}
	coord := NewCoordinator(cfg, testOptions(testClient(t)), peers)
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-executing
		cancel()
	}()
	opts := core.DefaultMultOptions()
	opts.Ctx = ctx
	if _, _, err := coord.Multiply("", "", a, b, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("multiply error = %v, want context.Canceled", err)
	}
	if coord.Stats().ShardShips == 0 {
		t.Fatal("the multiply was cancelled before any shard was uploaded")
	}
	if n := storedShards(workers); n != 0 {
		t.Fatalf("workers hold %d shards after the cancelled multiply, want 0", n)
	}
}

// corruptingWrapper buffers the worker's exec response and flips one bit
// inside the payload before forwarding it, leaving the stream's CRC stale.
func corruptingWrapper() func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/cluster/v1/exec" {
				inner.ServeHTTP(rw, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 16 {
				body[len(body)-10] ^= 0x04
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					rw.Header().Add(k, v)
				}
			}
			rw.WriteHeader(rec.Code)
			_, _ = rw.Write(body)
		})
	}
}

// truncatingWrapper lets the worker compute its reply and then dies half-way
// through sending it: the connection is aborted inside the first frame's
// tile payload, as a kill -9, a reset or an expired deadline would.
func truncatingWrapper() func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/cluster/v1/exec" {
				inner.ServeHTTP(rw, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			for k, vs := range rec.Header() {
				for _, v := range vs {
					rw.Header().Add(k, v)
				}
			}
			rw.WriteHeader(rec.Code)
			if rec.Code != http.StatusOK || len(body) < 8 {
				_, _ = rw.Write(body)
				return
			}
			_, _ = rw.Write(body[:4+binary.LittleEndian.Uint32(body[:4])/2])
			rw.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		})
	}
}

// TestClusterChaosTruncatedReplyFallsBackLocal runs a one-worker cluster
// whose every product stream dies mid-frame. A dead stream is a transport
// failure, not corruption, whatever tile the decoder was in when the bytes
// stopped: with no other candidate the coordinator must execute the shard
// itself and return the exact product.
func TestClusterChaosTruncatedReplyFallsBackLocal(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(57))
	a := partition(t, cfg, mat.RandomCOO(rng, 96, 80, 2200))
	b := partition(t, cfg, mat.RandomCOO(rng, 80, 96, 2000))

	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}

	worker := NewWorker(cfg)
	addr, _ := serveWorker(t, worker, truncatingWrapper())

	coord := NewCoordinator(cfg, testOptions(testClient(t)), []string{addr})
	defer coord.Close()

	dist, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply with every reply cut mid-frame: %v (corrupt: %v)", err, isCorrupt(err))
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("degraded product differs from local execution")
	}
	s := coord.Stats()
	if s.LocalTasks == 0 || s.ShardShips == 0 {
		t.Fatalf("stats = %+v, want shards shipped, replies lost and the tasks executed locally", s)
	}
	if n := worker.Store().Len(); n != 0 {
		t.Fatalf("worker holds %d shards after the multiply, want 0", n)
	}
}

// TestStreamFailureIsNotCorrupt pins the classification the drill above
// depends on, at the function that makes it: a product stream that ends or
// fails inside a frame is not corrupt; one with a flipped bit is.
func TestStreamFailureIsNotCorrupt(t *testing.T) {
	cfg := testCfg()
	m := partition(t, cfg, mat.RandomCOO(rand.New(rand.NewSource(58)), 64, 64, 1200))
	var buf bytes.Buffer
	if _, err := m.WriteTileRowFrames(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	half := 4 + int(binary.LittleEndian.Uint32(data[:4]))/2
	nop := func(*core.ATMatrix) error { return nil }

	err := core.ReadTileRowFrames(bytes.NewReader(data[:half]), nil, nop)
	if err == nil || isCorrupt(err) {
		t.Fatalf("stream cut mid-frame: error = %v, want a non-corrupt failure", err)
	}
	reset := &net.OpError{Op: "read", Err: errors.New("connection reset by peer")}
	err = core.ReadTileRowFrames(io.MultiReader(bytes.NewReader(data[:half]), iotest.ErrReader(reset)), nil, nop)
	if !errors.Is(err, reset) || isCorrupt(err) {
		t.Fatalf("stream reset mid-frame: error = %v, want the non-corrupt transport error", err)
	}
	data[half] ^= 0x01
	if err := core.ReadTileRowFrames(bytes.NewReader(data), nil, nop); !isCorrupt(err) {
		t.Fatalf("flipped bit: error = %v, want corrupt", err)
	}
}

// TestClusterFaultSiteRPCSend arms the rpc.send site: the first attempt
// fails before leaving the coordinator, the retry succeeds, and the retry
// is visible in the stats.
func TestClusterFaultSiteRPCSend(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(56))
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))
	b := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))

	hc := testClient(t)
	addr, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, testOptions(hc), []string{addr})
	defer coord.Close()

	reset := faultinject.Enable(1, faultinject.Rule{Site: "rpc.send", Kind: faultinject.KindTransient})
	defer reset()
	dist, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply with injected send fault: %v", err)
	}
	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("product after injected send fault differs from local execution")
	}
	if s := coord.Stats(); s.RPCRetries == 0 {
		t.Fatalf("stats = %+v, want the transient send failure retried", s)
	}
}

// TestClusterFaultSiteWorkerExec arms the worker.exec site with a
// permanent error: the worker answers 500, the coordinator re-routes (here:
// exhausts the single worker) and degrades the task to local execution.
func TestClusterFaultSiteWorkerExec(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(57))
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))
	b := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))

	hc := testClient(t)
	addr, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, testOptions(hc), []string{addr})
	defer coord.Close()

	reset := faultinject.Enable(1, faultinject.Rule{Site: "worker.exec", Kind: faultinject.KindError, Count: -1})
	defer reset()
	dist, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply with failing worker.exec: %v", err)
	}
	reset()
	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("degraded product differs from local execution")
	}
	if s := coord.Stats(); s.LocalTasks == 0 {
		t.Fatalf("stats = %+v, want tasks degraded to local execution", s)
	}
}

// TestClusterFaultSiteRPCConnMarksHealth arms rpc.conn permanently: every
// exec attempt dies at the transport layer, which must count against the
// worker's health exactly like missed heartbeats.
func TestClusterFaultSiteRPCConnMarksHealth(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(58))
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))
	b := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))

	hc := testClient(t)
	addr, _ := startWorker(t, cfg, nil)
	opts := testOptions(hc)
	opts.DeadAfter = 2
	coord := NewCoordinator(cfg, opts, []string{addr})
	defer coord.Close()

	reset := faultinject.Enable(1, faultinject.Rule{Site: "rpc.conn", Kind: faultinject.KindError, Count: -1})
	defer reset()
	if _, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions()); err != nil {
		t.Fatalf("multiply: %v", err)
	}
	if ws := coord.Workers(); ws[0].State == "healthy" {
		t.Fatalf("worker state = %+v, want degraded after repeated transport failures", ws[0])
	}
}

// TestClusterFaultSiteRPCRecv arms rpc.recv once: the response-path
// failure is transient, so a retry to the same worker recovers.
func TestClusterFaultSiteRPCRecv(t *testing.T) {
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(59))
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))
	b := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 1000))

	hc := testClient(t)
	addr, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, testOptions(hc), []string{addr})
	defer coord.Close()

	reset := faultinject.Enable(1, faultinject.Rule{Site: "rpc.recv", Kind: faultinject.KindTransient})
	defer reset()
	dist, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply with injected recv fault: %v", err)
	}
	if err := dist.Validate(); err != nil {
		t.Fatalf("product invalid: %v", err)
	}
	if s := coord.Stats(); s.RPCRetries == 0 {
		t.Fatalf("stats = %+v, want the transient recv failure retried", s)
	}
}

// TestClusterChaosEnvArmedRPCFaults is the production-path arming drill:
// instead of calling faultinject.Enable directly it reads the same
// ATSERVE_FAULTS/ATSERVE_FAULTS_SEED environment contract the atserve
// binary honors (run via `make chaos` with ATSERVE_FAULTS=rpc.send=transientx2),
// then asserts a two-worker multiply survives the armed wire faults with a
// byte-identical product. Skips when the environment is not armed, so the
// plain chaos pass ignores it.
func TestClusterChaosEnvArmedRPCFaults(t *testing.T) {
	spec := os.Getenv(faultinject.EnvVar)
	if spec == "" {
		t.Skipf("set %s (e.g. rpc.send=transientx2) to run the env-armed drill", faultinject.EnvVar)
	}
	cfg := testCfg()
	sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
	leakcheck.Check(t)
	var seed int64
	if sv := os.Getenv(faultinject.EnvSeedVar); sv != "" {
		fmt.Sscanf(sv, "%d", &seed)
	}
	rules, err := faultinject.EnableFromSpec(spec, seed)
	if err != nil {
		t.Fatalf("arming %s=%q: %v", faultinject.EnvVar, spec, err)
	}
	if len(rules) == 0 {
		t.Fatalf("%s=%q armed no rules", faultinject.EnvVar, spec)
	}
	defer faultinject.Disable()

	rng := rand.New(rand.NewSource(60))
	a := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2500))
	b := partition(t, cfg, mat.RandomCOO(rng, 96, 96, 2500))
	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}

	hc := testClient(t)
	addr1, _ := startWorker(t, cfg, nil)
	addr2, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, testOptions(hc), []string{addr1, addr2})
	defer coord.Close()

	dist, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("multiply under %s=%q: %v", faultinject.EnvVar, spec, err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("product under env-armed faults differs from local execution")
	}
	s := coord.Stats()
	if s.RPCRetries == 0 && s.TilesRerouted == 0 && s.LocalTasks == 0 {
		t.Fatalf("stats = %+v: no failure handling fired — did the armed faults hit?", s)
	}
}

// failingExecWrapper answers the first n exec RPCs (all of them when n is
// negative) with a worker failure of the given kind: transient (503, the
// coordinator re-sends to the same worker) or permanent (500, it
// re-routes). Every other request reaches the worker.
func failingExecWrapper(n int64, transient bool) func(http.Handler) http.Handler {
	var served atomic.Int64
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/v1/exec" && (n < 0 || served.Add(1) <= n) {
				_, _ = io.Copy(io.Discard, r.Body)
				status := http.StatusInternalServerError
				if transient {
					status = http.StatusServiceUnavailable
				}
				writeFailure(rw, status, rpcFailure{Error: "injected exec failure", Transient: transient})
				return
			}
			inner.ServeHTTP(rw, r)
		})
	}
}

// TestClusterAttemptCountersExact pins the attempt loop's accounting to
// exact values on a two-worker cluster with operands sharded at PUT time
// (R=2, so either worker can serve any task). A worker that refuses every
// exec permanently moves each task it owns to the other worker once: the
// re-routed tile-rows are exactly the bands of the shards it is primary
// of, with no re-send and no local task. A worker that fails its first k
// ≤ MaxRetries execs transiently is re-sent exactly k times and keeps its
// tile-rows.
func TestClusterAttemptCountersExact(t *testing.T) {
	const k = 2
	for _, tc := range []struct {
		name      string
		transient bool
		failures  int64
	}{
		{"permanent", false, -1},
		{"transient", true, k},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			sched.RuntimeFor(cfg.Topology) // pre-warm: its goroutines are not this test's leak
			leakcheck.Check(t)
			rng := rand.New(rand.NewSource(61))
			am := partition(t, cfg, mat.RandomCOO(rng, 160, 96, 3500))
			bm := partition(t, cfg, mat.RandomCOO(rng, 96, 112, 2500))
			local, _, err := core.MultiplyOpt(am, bm, cfg, core.DefaultMultOptions())
			if err != nil {
				t.Fatal(err)
			}

			hc := testClient(t)
			failAddr, _ := startWorker(t, cfg, failingExecWrapper(tc.failures, tc.transient))
			okAddr, _ := startWorker(t, cfg, nil)
			opts := shardedOptions(hc)
			opts.MaxRetries = k
			coord := NewCoordinator(cfg, opts, []string{failAddr, okAddr})
			defer coord.Close()
			aName, bName, a, b := chaosOperands(t, coord, cfg, true, am, bm)

			failing := coord.Workers()[0].Addr // registration order
			sm := coord.shardMapFor(aName)
			owned := 0
			for _, meta := range sm.Shards {
				if meta.Primary == failing {
					owned += len(meta.Bands)
				}
			}
			if owned == 0 {
				t.Fatalf("failing worker %s is primary of no shard of %q: %+v", failing, aName, sm.Shards)
			}

			dist, _, err := coord.Multiply(aName, bName, a, b, core.DefaultMultOptions())
			if err != nil {
				t.Fatalf("multiply: %v", err)
			}
			if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
				t.Fatal("product differs from local execution")
			}
			s := coord.Stats()
			wantRerouted, wantRetries := int64(owned), int64(0)
			if tc.transient {
				wantRerouted, wantRetries = 0, k
			}
			if s.TilesRerouted != wantRerouted || s.RPCRetries != wantRetries || s.LocalTasks != 0 {
				t.Fatalf("tiles_rerouted %d, rpc_retries %d, local_tasks %d; want %d, %d, 0",
					s.TilesRerouted, s.RPCRetries, s.LocalTasks, wantRerouted, wantRetries)
			}
		})
	}
}
