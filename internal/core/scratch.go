package core

import (
	"sync/atomic"
	"time"
	"unsafe"

	"atmatrix/internal/kernels"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// workerState is ATMULT's per-worker slice of transient state, parked in a
// persistent runtime worker's local slot (sched.Team.WorkerLocal) so it
// survives across tiles, phases, and whole Multiply invocations. It wraps
// the kernel-level Scratch arena and adds the operator-level contribution
// buffer and the sparse target's terms. The scheduler guarantees each slot
// is held by exactly one goroutine at a time, so no locking is needed.
type workerState struct {
	scratch  *kernels.Scratch
	contribs []contribution
	terms    []kernels.Term // a sparse target's contributions, as its row passes take them

	// persistent marks runtime-backed states, the only ones accounted in
	// the global scratch footprint.
	persistent bool
	lastBytes  int64

	// denseFn and sparseFn are the reusable ParallelRows bodies of the two
	// target branches; they close over the state once and read the cur*
	// fields, so a task allocates no closure per tile pair. The
	// fields are written by the task (leader) before the fan-out and read
	// by the helpers — the runtime's channel handoff orders the accesses.
	denseFn  func(lo, hi, worker int)
	sparseFn func(lo, hi, worker int)
	curTeam  *sched.Team
	curD     *mat.Dense
	curCts   []contribution // the dense target's contributions
	curLo    int            // the first target row of the fan-out's range
	curTask  *pairTask      // the dense target's task
	curNNZ   atomic.Int64   // the non-zeros the dense fan-out's workers counted
	curDirty bool           // the dense target's buffer holds an old product
	curAcc   *kernels.SpAcc
	curMC    *mulCtx
	curEph   bool
}

// scratchFootprint tracks the resident bytes of every persistent worker
// state in the process. Scratch buffers grow monotonically, so the value
// read after a multiplication is the scratch high-water mark reported in
// MultStats.ScratchBytes.
var scratchFootprint atomic.Int64

// stateFor returns the worker state for the given team-local worker index:
// the one parked in the worker's runtime slot, or a fresh throwaway one in
// ephemeral mode (the ablation baseline, which reproduces the historical
// allocate-per-task behavior).
func stateFor(team *sched.Team, worker int, ephemeral bool) *workerState {
	if ephemeral {
		return &workerState{scratch: kernels.NewScratch()}
	}
	slot := team.WorkerLocal(worker)
	ws, ok := (*slot).(*workerState)
	if !ok {
		ws = &workerState{scratch: kernels.NewScratch(), persistent: true}
		*slot = ws
	}
	return ws
}

// syncFootprint folds the state's current resident size into the global
// counter. Called when a worker finishes a task or a row chunk.
func (ws *workerState) syncFootprint() {
	if !ws.persistent {
		return
	}
	b := ws.scratch.Bytes() + int64(cap(ws.contribs))*int64(unsafe.Sizeof(contribution{})) +
		int64(cap(ws.terms))*int64(unsafe.Sizeof(kernels.Term{}))
	scratchFootprint.Add(b - ws.lastBytes)
	ws.lastBytes = b
}

// rowFns lazily builds the two reusable ParallelRows bodies.
func (ws *workerState) rowFns() (dense, sparse func(lo, hi, worker int)) {
	if ws.denseFn == nil {
		ws.denseFn = func(lo, hi, worker int) {
			lo, hi = lo+ws.curLo, hi+ws.curLo
			cw := ws.curD.View(lo, hi, 0, ws.curD.Cols)
			if ws.curDirty {
				// A recycled target: these rows, and only these, are
				// cleared just before their first contribution, while
				// the chunk is in cache. The view is full width, so its
				// Data is exactly its rows.
				clear(cw.Data)
			}
			cts := ws.curCts
			// The worker's own arena holds DSpD's column form of B; the
			// leader's panels, which converted operands live in, are
			// only read.
			wst := stateFor(ws.curTeam, worker, ws.curEph)
			for i := range cts {
				runDenseTarget(&cw, &cts[i], lo, hi, wst.scratch)
			}
			ws.curNNZ.Add(ws.curMC.finishRows(ws.curTask, &cw, lo))
			if worker != 0 {
				wst.syncFootprint()
			}
		}
		ws.sparseFn = func(lo, hi, worker int) {
			// Every row of the chunk is summed over all contributions and
			// written once, into the chunk's segment; the leader is left
			// with a prefix sum and one copy per segment (SpAcc.ToCSR).
			wst := stateFor(ws.curTeam, worker, ws.curEph)
			t0 := time.Now()
			ws.curAcc.Pass(worker, lo, hi, ws.terms, wst.scratch)
			ws.curMC.mulNanos.Add(time.Since(t0).Nanoseconds())
			// Worker 0 is the leader, whose scratch holds the shared
			// accumulator: measuring it here would race with the other
			// workers still writing rows. The task's deferred sync runs
			// after the fan-out barrier and covers it.
			if worker != 0 {
				wst.syncFootprint()
			}
		}
	}
	return ws.denseFn, ws.sparseFn
}

// releaseContribs clears the contribution buffer's elements and the
// per-task closure inputs so retained capacity does not pin operand tiles
// or converted windows of the last task beyond its lifetime.
func (ws *workerState) releaseContribs() {
	clear(ws.contribs[:cap(ws.contribs)])
	ws.contribs = ws.contribs[:0]
	clear(ws.terms[:cap(ws.terms)])
	ws.terms = ws.terms[:0]
	ws.curTeam, ws.curD, ws.curCts, ws.curAcc, ws.curMC, ws.curTask = nil, nil, nil, nil, nil, nil
}
