// Package sched implements the two-level parallelization of ATMULT
// (paper §III-F): one worker *team* per (simulated) socket, each team
// processing the tasks whose A tile-row is homed on its socket
// (inter-tile parallelization), and the workers inside a team splitting
// the rows of a single task among themselves (intra-tile parallelization).
// A task is a tile-row/tile-column pair, or a row chunk of one: a product
// with fewer pairs than teams cuts its dense-target pairs into chunks so
// that every team has one (core.MultiplyOpt). Spawning exactly one team
// per socket avoids last-level-cache pollution from unrelated tiles, which
// is the paper's stated reason for this resource split.
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
// framework. It is the only way work runs on the teams: every Team a task
// receives is one of its leaders', and no call spawns a goroutine per run or
// per fan-out.
package sched

import "atmatrix/internal/numa"

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

	// home links the team to its persistent workers.
	home *workerTeam
}

// WorkerLocal returns a pointer to the persistent storage slot of the given
// team-local worker index, in [0, Workers). The slot is owned exclusively
// by the goroutine executing that worker's ParallelRows chunk (worker 0
// additionally owns it for the whole task, since tasks run on the leader),
// so callers may use it without locking; the runtime's channel and
// WaitGroup handoffs order all accesses across goroutines.
func (t *Team) WorkerLocal(worker int) *any {
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
	// Hand chunks 1..w-1 to the team's resident helpers, run chunk 0 on the
	// leader, then wait on the reusable barrier. No goroutine is created. A
	// panic in any chunk — including the leader's own — is deferred past the
	// barrier so the reusable WaitGroup is never abandoned mid-count, then
	// re-raised for the task-level recovery to convert into a
	// TaskPanicError.
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
}
