package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2
	return cfg
}

// testCatalog loads three small operands ("a", "b", "c") and one big one
// ("big", slow enough to keep a worker busy while tests fill the queue).
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cfg := testConfig()
	cat, err := catalog.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for name, dim := range map[string]int{"a": 64, "b": 64, "c": 64} {
		am, _, err := core.Partition(mat.RandomCOO(rng, dim, dim, dim*10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Put(name, am, false); err != nil {
			t.Fatal(err)
		}
	}
	big, _, err := core.Partition(mat.RandomCOO(rng, 512, 512, 60000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Put("big", big, false); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestSubmitValidation(t *testing.T) {
	m := New(testCatalog(t), Options{})
	defer m.Close(time.Second)
	for _, req := range []Request{
		{},
		{A: "a"},
		{A: "a", B: "b", Chain: []string{"a", "b"}},
		{Chain: []string{"a"}},
	} {
		if _, err := m.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Submit(%+v): got %v, want ErrBadRequest", req, err)
		}
	}
	// Unknown operands are admitted but fail at execution.
	job, err := m.Submit(Request{A: "a", B: "nosuch"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("unknown operand: got %v, want catalog.ErrNotFound", err)
	}
}

func TestMultiplyAndStore(t *testing.T) {
	cat := testCatalog(t)
	m := New(cat, Options{})
	defer m.Close(5 * time.Second)

	job, err := m.Submit(Request{A: "a", B: "b", Store: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 64 || res.Cols != 64 || res.Stored != "ab" {
		t.Fatalf("result %+v", res)
	}
	// The stored product verifies against the reference multiplication.
	ha, _ := cat.Acquire("a")
	hb, _ := cat.Acquire("b")
	hab, err := cat.Acquire("ab")
	if err != nil {
		t.Fatal(err)
	}
	defer ha.Release()
	defer hb.Release()
	defer hab.Release()
	want := mat.MulReference(ha.Matrix().ToDense(), hb.Matrix().ToDense())
	if !hab.Matrix().ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("stored product is wrong")
	}

	// Chain jobs run through the chain optimizer and report the plan.
	cjob, err := m.Submit(Request{Chain: []string{"a", "b", "ab"}})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cjob.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if cres.ChainExpr == "" {
		t.Fatal("chain result missing plan expression")
	}

	mm := m.Metrics()
	if mm.Accepted != 2 || mm.Completed != 2 || mm.Rejected != 0 {
		t.Fatalf("metrics %+v", mm)
	}
	if mm.Mult.Contributions == 0 || mm.Mult.WallTime == 0 {
		t.Fatalf("aggregated MultStats empty: %+v", mm.Mult)
	}
	if mm.LatencyP50 == 0 || mm.LatencyP99 < mm.LatencyP50 {
		t.Fatalf("latency quantiles p50=%v p99=%v", mm.LatencyP50, mm.LatencyP99)
	}
}

func TestQueueBackpressure(t *testing.T) {
	m := New(testCatalog(t), Options{Workers: 1, QueueDepth: 2})
	defer m.Close(30 * time.Second)

	// Occupy the single worker with the big multiply, then fill the queue.
	slow, err := m.Submit(Request{A: "big", B: "big"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); m.Metrics().InFlight == 0; {
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := m.Submit(Request{A: "a", B: "b"})
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := m.Submit(Request{A: "a", B: "b"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: got %v, want ErrQueueFull", err)
	}
	if mm := m.Metrics(); mm.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", mm.Rejected)
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, j := range queued {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeadlineAbortsJob(t *testing.T) {
	m := New(testCatalog(t), Options{Workers: 1})
	defer m.Close(30 * time.Second)
	job, err := m.Submit(Request{A: "big", B: "big", Timeout: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline job: got %v, want context.DeadlineExceeded", err)
	}
	if mm := m.Metrics(); mm.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", mm.Canceled)
	}
}

func TestCloseDrainsAndRefusesAdmission(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(testCatalog(t), Options{Workers: 2, QueueDepth: 8})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(Request{A: "a", B: "b"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := m.Close(30 * time.Second); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, j := range jobs {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("drained job %d: %v", i, err)
		}
	}
	if _, err := m.Submit(Request{A: "a", B: "b"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close submit: got %v, want ErrDraining", err)
	}
	if err := m.Close(time.Second); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// The worker goroutines must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked after close: %d > baseline %d", n, base)
	}
}

// TestConcurrentSubmits hammers the manager from many goroutines: every
// request either completes successfully or is rejected with backpressure,
// and the counters reconcile exactly once the dust settles. Run under
// -race by `make check`.
func TestConcurrentSubmits(t *testing.T) {
	m := New(testCatalog(t), Options{Workers: 2, QueueDepth: 4})
	defer m.Close(30 * time.Second)

	const n = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted, rejected int
	var jobs []*Job
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := m.Submit(Request{A: "a", B: "b"})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted++
				jobs = append(jobs, job)
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("submit %d: unexpected %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if accepted+rejected != n {
		t.Fatalf("accepted %d + rejected %d != %d", accepted, rejected, n)
	}
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("accepted job failed: %v", err)
		}
	}
	mm := m.Metrics()
	if mm.Accepted != int64(accepted) || mm.Rejected != int64(rejected) {
		t.Fatalf("metrics %+v vs accepted %d rejected %d", mm, accepted, rejected)
	}
	if mm.Completed+mm.Failed+mm.Canceled+mm.Queued+mm.InFlight != mm.Accepted {
		t.Fatalf("accounting identity broken: %+v", mm)
	}
	if mm.Completed != int64(accepted) {
		t.Fatalf("completed = %d, want %d", mm.Completed, accepted)
	}
}

// TestWallCoversWholeJob: Result.Wall (the reply's wall_ns, and with the
// queue wait what the latency quantiles record) must cover everything a job
// does after it leaves the queue — including the expression-level Freivalds
// check of an eval job and the Repartition + catalog Put of a stored
// product, both of which it used to stop short of.
func TestWallCoversWholeJob(t *testing.T) {
	for name, req := range map[string]Request{
		"verified eval":  {Expr: "big'"},
		"stored product": {A: "big", B: "big", Store: "bb"},
	} {
		// Outside Wall by design: admission, the queue wait (reported
		// separately), acquiring the operand handles and the wake-up of
		// Wait — microseconds against milliseconds of work, so a tenth of
		// the job is the tolerance. The omission this guards against is
		// systematic (a third of the job or more); a scheduling hiccup on a
		// busy host is not, hence the best of three.
		var report string
		for attempt := 0; attempt < 3; attempt++ {
			m := New(testCatalog(t), Options{Workers: 1, Verify: 2})
			start := time.Now()
			job, err := m.Submit(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := job.Wait()
			elapsed := time.Since(start)
			m.Close(5 * time.Second)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			slack := elapsed - res.Queue - res.Wall
			if slack <= elapsed/10+time.Millisecond {
				report = ""
				break
			}
			report = fmt.Sprintf("Wall %v + Queue %v leave %v of the %v the caller waited unaccounted",
				res.Wall, res.Queue, slack, elapsed)
		}
		if report != "" {
			t.Errorf("%s: %s", name, report)
		}
	}
}
