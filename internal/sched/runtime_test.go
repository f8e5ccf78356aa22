package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmatrix/internal/numa"
)

// TestRuntimeGoroutinesStableAcrossRuns checks the point of the persistent
// runtime: runs and their row fan-outs are served by the resident workers,
// so the goroutine count never rises above its warm level — not even while
// a run is in flight.
func TestRuntimeGoroutinesStableAcrossRuns(t *testing.T) {
	rt := RuntimeFor(topo(2, 3))
	warm := func() {
		queues := make([][]func(*Team), 2)
		for s := range queues {
			queues[s] = []func(*Team){func(team *Team) {
				team.ParallelRows(64, func(lo, hi, w int) {})
			}}
		}
		runTasks(rt, queues)
	}
	warm() // first call starts the workers
	before := runtime.NumGoroutine()
	peak := peakGoroutines(func() {
		for i := 0; i < 50; i++ {
			warm()
		}
	})
	if peak > before+1 { // +1: the sampler
		t.Fatalf("goroutines rose during runs: %d warm, peak %d", before, peak)
	}
}

// peakGoroutines runs f while a sampler polls the goroutine count and
// returns the highest count seen, the sampler included.
func peakGoroutines(f func()) int {
	stop, peak := make(chan struct{}), make(chan int)
	go func() {
		top := 0
		for {
			select {
			case <-stop:
				peak <- top
				return
			default:
			}
			top = max(top, runtime.NumGoroutine())
			runtime.Gosched()
		}
	}()
	f()
	close(stop)
	return <-peak
}

// TestWorkerLocalPersistsAcrossRuns checks that a value parked in a worker
// slot survives subsequent Run calls — the property the per-worker scratch
// arenas rely on.
func TestWorkerLocalPersistsAcrossRuns(t *testing.T) {
	rt := RuntimeFor(topo(1, 2))
	run := func(f func(*Team)) {
		runTasks(rt, [][]func(*Team){{f}})
	}
	run(func(team *Team) {
		*team.WorkerLocal(0) = "kept"
	})
	var got any
	run(func(team *Team) {
		got = *team.WorkerLocal(0)
	})
	if got != "kept" {
		t.Fatalf("worker slot = %v, want \"kept\"", got)
	}
}

// TestRunStatsStolenCount checks the stolen-task counter: all work homed on
// socket 0 of a 4-socket pool must report at least one steal (the other
// three leaders have nothing local).
func TestRunStatsStolenCount(t *testing.T) {
	rt := RuntimeFor(topo(4, 1))
	var block = make(chan struct{})
	queues := make([][]func(*Team), 4)
	// The first task parks socket 0's leader so the other leaders must
	// steal the rest.
	queues[0] = append(queues[0], func(*Team) { <-block })
	for i := 0; i < 32; i++ {
		queues[0] = append(queues[0], func(*Team) {})
	}
	done := make(chan RunStats)
	go func() {
		rs, _ := runTasks(rt, queues)
		done <- rs
	}()
	time.Sleep(5 * time.Millisecond)
	close(block)
	rs := <-done
	if rs.Stolen == 0 {
		t.Fatal("no tasks counted as stolen")
	}
	if rs.Stolen > int64(len(queues[0])) {
		t.Fatalf("stolen = %d, more than the queue holds", rs.Stolen)
	}
}

// TestRunIndexedExecutesEveryItemOnce mirrors TestRunExecutesEveryTaskOnce
// for the allocation-free indexed form.
func TestRunIndexedExecutesEveryItemOnce(t *testing.T) {
	var counts [40]atomic.Int32
	queues := make([][]int32, 3)
	for i := 0; i < 40; i++ {
		queues[i%3] = append(queues[i%3], int32(i))
	}
	RuntimeFor(topo(3, 2)).RunIndexedCtx(nil, queues, func(_ *Team, item int32) { counts[item].Add(1) }, RunOpts{})
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("item %d ran %d times", i, counts[i].Load())
		}
	}
}

// TestRunIndexedStealing loads one socket and requires the dry teams to
// finish and count the items they took.
func TestRunIndexedStealing(t *testing.T) {
	rt := RuntimeFor(topo(3, 1))
	var n atomic.Int32
	queues := make([][]int32, 3)
	for i := 0; i < 90; i++ {
		queues[0] = append(queues[0], int32(i))
	}
	rs, _ := rt.RunIndexedCtx(nil, queues, func(*Team, int32) { n.Add(1) }, RunOpts{})
	if n.Load() != 90 {
		t.Fatalf("ran %d items, want 90", n.Load())
	}
	if rs.Stolen > 90 {
		t.Fatalf("stolen = %d out of 90", rs.Stolen)
	}
}

// TestParallelRowsGrainCapsWorkers checks the row-grain knob: with
// Grain=8, a 20-row range may use at most 2 workers (chunks of ≥8 rows)
// and a 15-row range must run inline.
func TestParallelRowsGrainCapsWorkers(t *testing.T) {
	var mu sync.Mutex
	workers := map[int]bool{}
	inlineCalls := 0
	withTeam(t, 4, 8, func(team *Team) {
		team.ParallelRows(20, func(lo, hi, w int) {
			if hi-lo < 8 {
				t.Errorf("chunk [%d,%d) shorter than grain", lo, hi)
			}
			mu.Lock()
			workers[w] = true
			mu.Unlock()
		})
		team.ParallelRows(15, func(lo, hi, w int) {
			inlineCalls++
			if lo != 0 || hi != 15 || w != 0 {
				t.Errorf("expected inline execution, got [%d,%d) on worker %d", lo, hi, w)
			}
		})
	})
	if len(workers) > 2 {
		t.Fatalf("used %d workers, want ≤ 2 with grain 8 over 20 rows", len(workers))
	}
	if inlineCalls != 1 {
		t.Fatalf("inline range invoked %d times", inlineCalls)
	}
}

// TestParallelRowsBalancedChunks checks that chunk sizes differ by at most
// one row — the fix for the near-empty trailing chunks the ceiling split
// used to produce (e.g. 17 rows over 4 workers was 5/5/5/2).
func TestParallelRowsBalancedChunks(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{17, 4}, {100, 3}, {5, 4}, {31, 8}, {9, 2},
	} {
		var mu sync.Mutex
		var sizes []int
		withTeam(t, tc.workers, 0, func(team *Team) {
			team.ParallelRows(tc.n, func(lo, hi, w int) {
				mu.Lock()
				sizes = append(sizes, hi-lo)
				mu.Unlock()
			})
		})
		mn, mx := tc.n, 0
		total := 0
		for _, s := range sizes {
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
			total += s
		}
		if total != tc.n {
			t.Fatalf("n=%d w=%d: chunks sum to %d", tc.n, tc.workers, total)
		}
		if mx-mn > 1 {
			t.Fatalf("n=%d w=%d: unbalanced chunks %v", tc.n, tc.workers, sizes)
		}
	}
}

// TestRuntimeForReusesInstance checks the per-topology singleton.
func TestRuntimeForReusesInstance(t *testing.T) {
	a := RuntimeFor(numa.Topology{Sockets: 2, CoresPerSocket: 5})
	b := RuntimeFor(numa.Topology{Sockets: 2, CoresPerSocket: 5})
	if a != b {
		t.Fatal("same topology produced two runtimes")
	}
	if a.Topology().Sockets != 2 || a.Topology().CoresPerSocket != 5 {
		t.Fatalf("runtime topology = %+v", a.Topology())
	}
}
