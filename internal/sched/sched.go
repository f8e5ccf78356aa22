// Package sched implements the parallelization of ATMULT (paper §III-F):
// one task queue per (simulated) socket, holding the tasks whose A tile-row
// is homed on that socket, and CoresPerSocket workers per socket that drain
// it. A task is a tile-row/tile-column pair, or a row chunk of one: a
// product with fewer pairs than cores cuts its pairs into chunks so that
// every worker has one (core.MultiplyOpt), which is how the rows of one
// tile are shared. Keeping one queue per socket avoids
// last-level-cache pollution from unrelated tiles, which is the paper's
// stated reason for this resource split.
//
// There is one scheduling policy and it deviates from the paper in two
// stated ways. The paper pins a pair strictly to the socket owning its A
// tile-row; here a worker whose socket's queue is dry takes what is left in
// the other sockets' queues (Runtime.workerLoop says why, EXPERIMENTS.md has
// the numbers). And the paper's team splits the rows of every tile among its
// workers; here the workers of a socket take whole pairs, and a tile's rows
// are shared only when the pair is cut into row chunks (DESIGN.md §4c).
// There is one way to run work: queues of item ids through one task
// function, RunIndexedCtx.
//
// Workers are long-lived: a process-wide Runtime per topology keeps
// Sockets × CoresPerSocket worker goroutines alive across calls (see
// runtime.go), mirroring the paper's reliance on SAP HANA's resident task
// framework. It is the only way work runs: every Team a task receives is
// one of its workers', and no call spawns a goroutine per run or per task.
package sched

import "atmatrix/internal/numa"

// Team is what a task sees of the worker running it.
type Team struct {
	// Socket is the simulated socket (and memory node) the worker is
	// pinned to.
	Socket numa.Node

	// local is the worker's persistent storage slot (WorkerLocal).
	local any
}

// WorkerLocal returns a pointer to the running worker's persistent storage
// slot. Only that worker runs tasks with this Team, one at a time, so
// callers may use the slot without locking.
func (t *Team) WorkerLocal() *any {
	return &t.local
}

// ParallelRows runs f(0, n, 0) inline. Nothing in the module calls it; it
// stays only because the benchmark driver's scheduler probe (atload) does,
// and goes with ROADMAP item 0(d).
func (t *Team) ParallelRows(n int, f func(lo, hi, worker int)) {
	f(0, n, 0)
}
