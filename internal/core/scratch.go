package core

import (
	"sync/atomic"
	"unsafe"

	"atmatrix/internal/kernels"
	"atmatrix/internal/sched"
)

// workerState is ATMULT's per-worker slice of transient state, parked in a
// persistent runtime worker's local slot (sched.Team.WorkerLocal) so it
// survives across tiles, phases, and whole Multiply invocations. It wraps
// the kernel-level Scratch arena and adds the operator-level contribution
// buffer and the sparse target's terms. Only its worker uses it, one task at
// a time, so no locking is needed.
type workerState struct {
	scratch  *kernels.Scratch
	contribs []contribution
	terms    []kernels.Term // a sparse target's contributions, as its row pass takes them

	// persistent marks runtime-backed states, the only ones accounted in
	// the global scratch footprint.
	persistent bool
	lastBytes  int64
}

// scratchFootprint tracks the resident bytes of every persistent worker
// state in the process. Scratch buffers grow monotonically, so the value
// read after a multiplication is the scratch high-water mark reported in
// MultStats.ScratchBytes.
var scratchFootprint atomic.Int64

// stateFor returns the worker state of the worker running the task: the
// one parked in its runtime slot, or a fresh throwaway one in ephemeral mode
// (the ablation baseline, which reproduces the historical allocate-per-task
// behavior).
func stateFor(team *sched.Team, ephemeral bool) *workerState {
	if ephemeral {
		return &workerState{scratch: kernels.NewScratch()}
	}
	slot := team.WorkerLocal()
	ws, ok := (*slot).(*workerState)
	if !ok {
		ws = &workerState{scratch: kernels.NewScratch(), persistent: true}
		*slot = ws
	}
	return ws
}

// syncFootprint folds the state's current resident size into the global
// counter. Called when a worker finishes a task.
func (ws *workerState) syncFootprint() {
	if !ws.persistent {
		return
	}
	b := ws.scratch.Bytes() + int64(cap(ws.contribs))*int64(unsafe.Sizeof(contribution{})) +
		int64(cap(ws.terms))*int64(unsafe.Sizeof(kernels.Term{}))
	scratchFootprint.Add(b - ws.lastBytes)
	ws.lastBytes = b
}

// releaseContribs clears the contribution buffer's and the terms' elements
// so retained capacity does not pin operand tiles or converted windows of
// the last task beyond its lifetime.
func (ws *workerState) releaseContribs() {
	clear(ws.contribs[:cap(ws.contribs)])
	ws.contribs = ws.contribs[:0]
	clear(ws.terms[:cap(ws.terms)])
	ws.terms = ws.terms[:0]
}
