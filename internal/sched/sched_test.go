package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"atmatrix/internal/numa"
)

func topo(s, c int) numa.Topology { return numa.Topology{Sockets: s, CoresPerSocket: c} }

// runTasks runs queues of closures on p: the k-th task over all queues
// becomes item id k, executed through one dispatching run function.
func runTasks(p *Pool, queues [][]func(*Team)) (RunStats, error) {
	var tasks []func(*Team)
	items := make([][]int32, len(queues))
	for s, q := range queues {
		for _, f := range q {
			items[s] = append(items[s], int32(len(tasks)))
			tasks = append(tasks, f)
		}
	}
	return p.RunIndexedCtx(nil, items, func(team *Team, item int32) { tasks[item](team) })
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	p := NewPool(topo(3, 2))
	var counts [30]atomic.Int32
	queues := make([][]func(*Team), 3)
	for i := 0; i < 30; i++ {
		i := i
		queues[i%3] = append(queues[i%3], func(*Team) { counts[i].Add(1) })
	}
	runTasks(p, queues)
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, counts[i].Load())
		}
	}
}

func TestRunWithStealing(t *testing.T) {
	p := NewPool(topo(4, 1))
	var n atomic.Int32
	// Load all the work onto one socket; the dry teams taking the rest
	// must still complete it all exactly once.
	queues := make([][]func(*Team), 4)
	for i := 0; i < 100; i++ {
		queues[0] = append(queues[0], func(*Team) { n.Add(1) })
	}
	runTasks(p, queues)
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestRunFoldsExtraQueues(t *testing.T) {
	p := NewPool(topo(2, 1))
	var n atomic.Int32
	queues := make([][]func(*Team), 5) // more queues than sockets
	for i := range queues {
		queues[i] = []func(*Team){func(*Team) { n.Add(1) }}
	}
	runTasks(p, queues)
	if n.Load() != 5 {
		t.Fatalf("ran %d tasks, want 5", n.Load())
	}
}

func TestTeamSocketAssignment(t *testing.T) {
	p := NewPool(topo(3, 2))
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
	runTasks(p, queues)
	if len(seen) != 3 {
		t.Fatalf("saw %d sockets, want 3", len(seen))
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	team := &Team{Workers: 4}
	for _, n := range []int{0, 1, 3, 4, 5, 17, 100} {
		covered := make([]atomic.Int32, n)
		team.ParallelRows(n, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("n=%d: row %d covered %d times", n, i, covered[i].Load())
			}
		}
	}
}

func TestParallelRowsInlineForSingleWorker(t *testing.T) {
	team := &Team{Workers: 1}
	ran := false
	team.ParallelRows(10, func(lo, hi, w int) {
		if lo != 0 || hi != 10 || w != 0 {
			t.Fatalf("inline split [%d,%d) worker %d", lo, hi, w)
		}
		ran = true
	})
	if !ran {
		t.Fatal("function not invoked")
	}
}

func TestParallelRowsWorkerIDsDisjoint(t *testing.T) {
	team := &Team{Workers: 3}
	var mu sync.Mutex
	workers := map[int]bool{}
	team.ParallelRows(30, func(lo, hi, w int) {
		mu.Lock()
		if workers[w] {
			t.Errorf("worker id %d reused", w)
		}
		workers[w] = true
		mu.Unlock()
	})
	if len(workers) != 3 {
		t.Fatalf("used %d workers, want 3", len(workers))
	}
}

// TestLoneItemRunsOnce: with a single item homed on socket 0 of a 2-socket
// pool both teams go for it — its own and the dry one — and exactly one of
// them gets it, whichever that is.
func TestLoneItemRunsOnce(t *testing.T) {
	for _, ephemeral := range []bool{false, true} {
		p := NewPool(topo(2, 1))
		p.Ephemeral = ephemeral
		for rep := 0; rep < 200; rep++ {
			var ran atomic.Int32
			var by atomic.Int32
			rs, err := p.RunIndexedCtx(nil, [][]int32{{7}, nil}, func(team *Team, item int32) {
				if item != 7 {
					t.Errorf("ran item %d, want 7", item)
				}
				ran.Add(1)
				by.Store(int32(team.Socket))
			})
			if err != nil {
				t.Fatal(err)
			}
			if ran.Load() != 1 {
				t.Fatalf("ephemeral=%v: the item ran %d times, want 1", ephemeral, ran.Load())
			}
			if rs.Stolen != int64(by.Load()) {
				t.Fatalf("ephemeral=%v: ran on socket %d but Stolen = %d", ephemeral, by.Load(), rs.Stolen)
			}
		}
	}
}

func TestNewPoolRejectsInvalidTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology accepted")
		}
	}()
	NewPool(numa.Topology{})
}
