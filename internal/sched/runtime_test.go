package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"atmatrix/internal/numa"
)

// TestRuntimeGoroutinesStableAcrossRuns checks the point of the persistent
// runtime: runs are served by the resident workers, so the goroutine count
// never rises above its warm level — not even while a run is in flight.
func TestRuntimeGoroutinesStableAcrossRuns(t *testing.T) {
	rt := RuntimeFor(topo(2, 3))
	warm := func() {
		queues := make([][]func(*Team), 2)
		for s := range queues {
			for range 8 {
				queues[s] = append(queues[s], func(*Team) {})
			}
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
// arenas rely on. One worker, so both runs' tasks run on it.
func TestWorkerLocalPersistsAcrossRuns(t *testing.T) {
	rt := RuntimeFor(topo(1, 1))
	run := func(f func(*Team)) {
		runTasks(rt, [][]func(*Team){{f}})
	}
	run(func(team *Team) {
		*team.WorkerLocal() = "kept"
	})
	var got any
	run(func(team *Team) {
		got = *team.WorkerLocal()
	})
	if got != "kept" {
		t.Fatalf("worker slot = %v, want \"kept\"", got)
	}
}

// TestRunStatsStolenCount checks the stolen-task counter: all work homed on
// socket 0 of a 4-socket pool must report at least one steal (the other
// three workers have nothing local).
func TestRunStatsStolenCount(t *testing.T) {
	rt := RuntimeFor(topo(4, 1))
	var block = make(chan struct{})
	queues := make([][]func(*Team), 4)
	// The first task parks socket 0's worker so the other workers must
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
