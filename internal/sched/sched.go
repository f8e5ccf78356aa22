// Package sched implements the two-level parallelization of ATMULT
// (paper §III-F): one worker *team* per (simulated) socket, each team
// processing the tile-row/tile-column pairs whose A tile-row is homed on
// its socket (inter-tile parallelization), and the workers inside a team
// splitting the rows of a single tile multiplication among themselves
// (intra-tile parallelization). Spawning exactly one team per socket
// avoids last-level-cache pollution from unrelated tiles, which is the
// paper's stated reason for this resource split.
//
// There is one scheduling policy and it deviates from the paper in one
// stated way: the paper pins a pair strictly to the socket owning its A
// tile-row; here a team whose own queue is dry takes what is left in the
// other teams' queues (Runtime.leaderLoop says why, EXPERIMENTS.md has the
// numbers). There is one way to run work: queues of item ids through one
// task function, RunIndexedCtx.
//
// Teams are long-lived: a process-wide Runtime per topology keeps
// Sockets × CoresPerSocket worker goroutines alive across calls (see
// runtime.go), mirroring the paper's reliance on SAP HANA's resident task
// framework. Pool is the one-shot façade; it routes into the shared Runtime
// unless Ephemeral selects the spawn-per-call baseline of the runtime
// ablation.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"atmatrix/internal/numa"
)

// Team is a group of workers bound to one simulated socket.
type Team struct {
	// Socket is the simulated socket (and memory node) this team is
	// pinned to.
	Socket numa.Node
	// Workers is the number of threads in the team.
	Workers int
	// Grain is the minimum number of rows per worker in ParallelRows; a
	// range shorter than 2·Grain runs inline. Zero or one means no
	// constraint. The knob exists because tiny sparse tiles otherwise
	// over-parallelize — the hazard the paper notes for small blocks.
	Grain int

	// home links a runtime-backed team to its persistent workers; nil for
	// ad-hoc teams (tests, ephemeral pools), which fall back to spawning.
	home *workerTeam
}

// WorkerLocal returns a pointer to the persistent storage slot of the given
// team-local worker index, or nil when the team is not backed by the
// persistent runtime. The slot is owned exclusively by the goroutine
// executing that worker's ParallelRows chunk (worker 0 additionally owns it
// for the whole task, since tasks run on the leader), so callers may use it
// without locking; the runtime's channel and WaitGroup handoffs order all
// accesses across goroutines.
func (t *Team) WorkerLocal(worker int) *any {
	if t.home == nil || worker < 0 || worker >= len(t.home.locals) {
		return nil
	}
	return &t.home.locals[worker]
}

// ParallelRows splits the half-open range [0, n) into one contiguous,
// balanced chunk per participating worker and runs f(lo, hi, worker)
// concurrently. Chunk sizes differ by at most one row, so a range slightly
// above the worker count no longer produces near-empty trailing chunks.
// The number of participants is additionally capped so that every chunk
// has at least Grain rows; with a single participant (or a trivially small
// range) f runs inline, avoiding fan-out overhead for tiny tiles.
func (t *Team) ParallelRows(n int, f func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	w := t.Workers
	if w > n {
		w = n
	}
	if g := t.Grain; g > 1 {
		if maxW := n / g; w > maxW {
			w = maxW
		}
	}
	if w <= 1 {
		f(0, n, 0)
		return
	}
	base, rem := n/w, n%w
	// Worker i gets base rows, the first rem workers one extra.
	first := base
	if rem > 0 {
		first++
	}
	if t.home != nil {
		// Persistent path: hand chunks 1..w-1 to the team's resident
		// helpers, run chunk 0 on the leader, then wait on the reusable
		// barrier. No goroutine is created. A panic in any chunk —
		// including the leader's own — is deferred past the barrier so the
		// reusable WaitGroup is never abandoned mid-count, then re-raised
		// for the task-level recovery to convert into a TaskPanicError.
		wg := &t.home.wg
		wg.Add(w - 1)
		lo := first
		for i := 1; i < w; i++ {
			sz := base
			if i < rem {
				sz++
			}
			t.home.jobCh <- rowJob{lo: lo, hi: lo + sz, worker: i, f: f, wg: wg}
			lo += sz
		}
		leaderP := runChunk(f, 0, first, 0)
		wg.Wait()
		if fp := t.home.fanoutPanic.Swap(nil); fp != nil {
			panic(fp)
		}
		if leaderP != nil {
			panic(leaderP)
		}
		return
	}
	// Ad-hoc path (tests, ephemeral pools): spawn per call as before, with
	// the same panic-past-the-barrier discipline.
	var wg sync.WaitGroup
	var shared atomic.Pointer[fanoutPanic]
	wg.Add(w - 1)
	lo := first
	for i := 1; i < w; i++ {
		sz := base
		if i < rem {
			sz++
		}
		go func(lo, hi, worker int) {
			defer wg.Done()
			if fp := runChunk(f, lo, hi, worker); fp != nil {
				shared.CompareAndSwap(nil, fp)
			}
		}(lo, lo+sz, i)
		lo += sz
	}
	leaderP := runChunk(f, 0, first, 0)
	wg.Wait()
	if fp := shared.Load(); fp != nil {
		panic(fp)
	}
	if leaderP != nil {
		panic(leaderP)
	}
}

// Pool runs per-team queues of item ids. It is a thin adapter over the
// shared persistent Runtime of its topology; constructing a Pool is free.
type Pool struct {
	topo numa.Topology
	// RowGrain is the minimum number of rows per worker handed to
	// Team.ParallelRows (see Team.Grain).
	RowGrain int
	// Watchdog, when positive, is the per-task deadline: a task running
	// longer marks its team degraded and fails the run with a
	// *WatchdogError instead of blocking the caller forever. Zero
	// disables the watchdog. Only the persistent runtime enforces it;
	// Ephemeral pools ignore the knob.
	Watchdog time.Duration
	// Ephemeral restores the historical spawn-per-call scheduler: every
	// run starts fresh goroutines and no persistent worker state is
	// reused. It exists as the ablation baseline for the persistent
	// runtime and the per-worker scratch arenas.
	Ephemeral bool
}

// NewPool returns a pool over the given topology.
func NewPool(topo numa.Topology) *Pool {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	return &Pool{topo: topo}
}

// Topology returns the pool's topology.
func (p *Pool) Topology() numa.Topology { return p.topo }

// RunIndexedCtx executes queues of item ids through one shared task
// function (see Runtime.RunIndexedCtx); queues[s] holds the items homed on
// socket s, and queue indexes beyond the socket count are folded back
// round-robin. It blocks until every item has run exactly once (or the run
// failed or was cancelled).
func (p *Pool) RunIndexedCtx(ctx context.Context, queues [][]int32, run func(team *Team, item int32)) (RunStats, error) {
	if !p.Ephemeral {
		return RuntimeFor(p.topo).RunIndexedCtx(ctx, queues, run, RunOpts{Grain: p.RowGrain, Watchdog: p.Watchdog})
	}
	return p.runEphemeral(&runReq{items: foldQueues(queues, p.topo.Sockets), run: run, grain: p.RowGrain, ctx: ctx})
}

// runEphemeral is the pre-runtime implementation: one goroutine per socket
// per call, teams without persistent backing, the same home-first-then-the-
// rest drain as Runtime.leaderLoop. Task panics are isolated the same way as
// on the persistent runtime; the watchdog is not enforced (ephemeral teams
// exist only as the ablation baseline).
func (p *Pool) runEphemeral(req *runReq) (RunStats, error) {
	s := p.topo.Sockets
	req.next = make([]atomic.Int64, s)
	var wg sync.WaitGroup
	for sock := 0; sock < s; sock++ {
		wg.Add(1)
		go func(sock int) {
			defer wg.Done()
			team := &Team{Socket: numa.Node(sock), Workers: p.topo.CoresPerSocket, Grain: p.RowGrain}
			for off := 0; off < s; off++ {
				victim := (sock + off) % s
				for {
					if req.aborted() {
						return
					}
					i := int(req.next[victim].Add(1) - 1)
					if i >= len(req.items[victim]) {
						break
					}
					req.safeExec(victim, i, team)
					if off > 0 {
						req.stolen.Add(1)
					}
				}
			}
		}(sock)
	}
	wg.Wait()
	return RunStats{Stolen: req.stolen.Load()}, req.firstErr()
}
