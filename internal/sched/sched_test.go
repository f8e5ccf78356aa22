package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"atmatrix/internal/numa"
)

func topo(s, c int) numa.Topology { return numa.Topology{Sockets: s, CoresPerSocket: c} }

// runTasks runs queues of closures on rt: the k-th task over all queues
// becomes item id k, executed through one dispatching run function.
func runTasks(rt *Runtime, queues [][]func(*Team)) (RunStats, error) {
	return runTasksOpts(rt, RunOpts{}, queues)
}

// runTasksOpts is runTasks with run options (grain, watchdog).
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

// withTeam runs f as the one item of a run on a one-socket runtime of the
// given team size and row grain: f receives a leader's team, the only kind
// there is. f runs on a worker goroutine, so it reports with t.Error, not
// t.Fatal.
func withTeam(t *testing.T, workers, grain int, f func(*Team)) {
	t.Helper()
	if _, err := runTasksOpts(RuntimeFor(topo(1, workers)), RunOpts{Grain: grain}, [][]func(*Team){{f}}); err != nil {
		t.Fatal(err)
	}
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
	rt := RuntimeFor(topo(3, 2))
	var mu sync.Mutex
	seen := map[numa.Node]bool{}
	// Every task waits for all three to have started, so each team is
	// held by its own and none is free to take another's.
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
			if team.Workers != 2 {
				t.Errorf("team workers %d, want 2", team.Workers)
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

func TestParallelRowsCoversRange(t *testing.T) {
	withTeam(t, 4, 0, func(team *Team) {
		for _, n := range []int{0, 1, 3, 4, 5, 17, 100} {
			covered := make([]atomic.Int32, n)
			team.ParallelRows(n, func(lo, hi, w int) {
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			for i := range covered {
				if covered[i].Load() != 1 {
					t.Errorf("n=%d: row %d covered %d times", n, i, covered[i].Load())
					return
				}
			}
		}
	})
}

func TestParallelRowsInlineForSingleWorker(t *testing.T) {
	ran := false
	withTeam(t, 1, 0, func(team *Team) {
		team.ParallelRows(10, func(lo, hi, w int) {
			if lo != 0 || hi != 10 || w != 0 {
				t.Errorf("inline split [%d,%d) worker %d", lo, hi, w)
			}
			ran = true
		})
	})
	if !ran {
		t.Fatal("function not invoked")
	}
}

func TestParallelRowsWorkerIDsDisjoint(t *testing.T) {
	var mu sync.Mutex
	workers := map[int]bool{}
	withTeam(t, 3, 0, func(team *Team) {
		team.ParallelRows(30, func(lo, hi, w int) {
			mu.Lock()
			if workers[w] {
				t.Errorf("worker id %d reused", w)
			}
			workers[w] = true
			mu.Unlock()
		})
	})
	if len(workers) != 3 {
		t.Fatalf("used %d workers, want 3", len(workers))
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
