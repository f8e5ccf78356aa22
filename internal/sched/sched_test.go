package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmatrix/internal/numa"
)

func topo(s, c int) numa.Topology { return numa.Topology{Sockets: s, CoresPerSocket: c} }

// runTasks runs queues of closures on rt: the k-th task over all queues
// becomes item id k, executed through one dispatching run function.
func runTasks(rt *Runtime, queues [][]func(*Team)) (RunStats, error) {
	return runTasksOpts(rt, RunOpts{}, queues)
}

// runTasksOpts is runTasks with run options (the watchdog).
func runTasksOpts(rt *Runtime, opts RunOpts, queues [][]func(*Team)) (RunStats, error) {
	var tasks []func(*Team)
	items := make([][]int32, len(queues))
	for s, q := range queues {
		for _, f := range q {
			items[s] = append(items[s], int32(len(tasks)))
			tasks = append(tasks, f)
		}
	}
	return rt.RunIndexedCtx(nil, items, func(team *Team, item int32) { tasks[item](team) }, opts)
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	rt := RuntimeFor(topo(3, 2))
	var counts [30]atomic.Int32
	queues := make([][]func(*Team), 3)
	for i := 0; i < 30; i++ {
		i := i
		queues[i%3] = append(queues[i%3], func(*Team) { counts[i].Add(1) })
	}
	runTasks(rt, queues)
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, counts[i].Load())
		}
	}
}

func TestRunWithStealing(t *testing.T) {
	rt := RuntimeFor(topo(4, 1))
	var n atomic.Int32
	// Load all the work onto one socket; the dry teams taking the rest
	// must still complete it all exactly once.
	queues := make([][]func(*Team), 4)
	for i := 0; i < 100; i++ {
		queues[0] = append(queues[0], func(*Team) { n.Add(1) })
	}
	runTasks(rt, queues)
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestRunFoldsExtraQueues(t *testing.T) {
	rt := RuntimeFor(topo(2, 1))
	var n atomic.Int32
	queues := make([][]func(*Team), 5) // more queues than sockets
	for i := range queues {
		queues[i] = []func(*Team){func(*Team) { n.Add(1) }}
	}
	runTasks(rt, queues)
	if n.Load() != 5 {
		t.Fatalf("ran %d tasks, want 5", n.Load())
	}
}

func TestTeamSocketAssignment(t *testing.T) {
	rt := RuntimeFor(topo(3, 1))
	var mu sync.Mutex
	seen := map[numa.Node]bool{}
	// Every task waits for all three to have started, so each socket's one
	// worker is held by its own and none is free to take another's.
	var arrived sync.WaitGroup
	arrived.Add(3)
	queues := make([][]func(*Team), 3)
	for s := 0; s < 3; s++ {
		want := numa.Node(s)
		queues[s] = []func(*Team){func(team *Team) {
			arrived.Done()
			arrived.Wait()
			if team.Socket != want {
				t.Errorf("task on socket %d, want %d", team.Socket, want)
			}
			mu.Lock()
			seen[team.Socket] = true
			mu.Unlock()
		}}
	}
	runTasks(rt, queues)
	if len(seen) != 3 {
		t.Fatalf("saw %d sockets, want 3", len(seen))
	}
}

// TestSocketWorkersShareItsQueue: at 1×2 both of socket 0's workers take
// tasks from its queue, so two tasks queued there meet at a two-party
// rendezvous. One worker running both in turn would wait out the timeout in
// the first.
func TestSocketWorkersShareItsQueue(t *testing.T) {
	rt := RuntimeFor(topo(1, 2))
	var arrived sync.WaitGroup
	arrived.Add(2)
	met := make(chan struct{})
	go func() { arrived.Wait(); close(met) }()
	var finished atomic.Int32
	meet := func(*Team) {
		arrived.Done()
		select {
		case <-met:
			finished.Add(1)
		case <-time.After(5 * time.Second):
			t.Error("the other task never started: one worker ran the socket's queue alone")
		}
	}
	if _, err := runTasks(rt, [][]func(*Team){{meet, meet}}); err != nil {
		t.Fatal(err)
	}
	if n := finished.Load(); n != 2 {
		t.Fatalf("%d of 2 tasks finished at the rendezvous", n)
	}
}

// TestLoneItemRunsOnce: with a single item homed on socket 0 of a 2-socket
// runtime both teams go for it — its own and the dry one — and exactly one
// of them gets it, whichever that is.
func TestLoneItemRunsOnce(t *testing.T) {
	rt := RuntimeFor(topo(2, 1))
	for rep := 0; rep < 200; rep++ {
		var ran atomic.Int32
		var by atomic.Int32
		rs, err := rt.RunIndexedCtx(nil, [][]int32{{7}, nil}, func(team *Team, item int32) {
			if item != 7 {
				t.Errorf("ran item %d, want 7", item)
			}
			ran.Add(1)
			by.Store(int32(team.Socket))
		}, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 1 {
			t.Fatalf("the item ran %d times, want 1", ran.Load())
		}
		if rs.Stolen != int64(by.Load()) {
			t.Fatalf("ran on socket %d but Stolen = %d", by.Load(), rs.Stolen)
		}
	}
}

func TestRuntimeForRejectsInvalidTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology accepted")
		}
	}()
	RuntimeFor(numa.Topology{})
}
