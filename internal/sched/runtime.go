package sched

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"atmatrix/internal/faultinject"
	"atmatrix/internal/numa"
)

// Runtime is the persistent incarnation of the scheduler: it starts
// Sockets × CoresPerSocket long-lived worker goroutines once and serves
// every subsequent run over channels, the way the paper's SAP HANA task
// framework keeps socket-pinned workers alive across operator invocations
// (§III-F). A run costs one channel handoff per worker, not a goroutine, and
// every worker has a stable identity that per-worker scratch arenas key off
// (see Team.WorkerLocal). It is the only scheduler.
//
// There is one kind of worker. Each belongs to a socket and drains that
// socket's queue of every run, then takes what is left in the other
// sockets' queues, so the workers of one socket share its tasks and several
// of them run at once.
//
// The runtime is also the process's panic domain boundary: a panic inside a
// task body is recovered on the worker, converted to a *TaskPanicError, and
// fails only the run that owned the task. A run may additionally arm a
// per-task watchdog; a task monopolizing a worker past the deadline —
// measured from the later of the task's start and the run's dispatch, so
// backlog from concurrent runs does not count — marks that worker degraded
// and fails the run with a *WatchdogError instead of blocking the caller
// forever. Degraded workers are skipped by later runs (the healthy ones
// take their socket's queue) and self-heal as soon as they finish any
// request, the proof that the stuck task has returned.
//
// Tasks must not start a run from inside a task: the worker executing the
// outer task would never pick up the nested request. None of the operators
// in this repository nest runs.
type Runtime struct {
	topo    numa.Topology
	workers []*worker // socket-major: worker w serves socket w / CoresPerSocket
	closed  atomic.Bool

	// handoffs tracks the async dispatch senders (see dispatch). Close
	// drains it before closing the request channels, so an abandoned
	// handoff can never race a channel close: once its request is done,
	// a sender exits promptly.
	handoffs sync.WaitGroup
}

// worker is one persistent worker goroutine of a socket.
type worker struct {
	reqCh chan *runReq
	// team is what the worker's tasks receive; its local slot is owned by
	// this worker alone.
	team Team

	// taskStart is the UnixNano start time of the worker's in-flight
	// task, 0 while idle; run watchdogs read it to detect stuck tasks.
	taskStart atomic.Int64

	// degraded marks a worker abandoned by a watchdog. Dispatch skips
	// degraded workers; the worker clears the flag whenever it finishes a
	// request — proof that it is alive — so it heals even when the run
	// that degraded it was abandoned in dispatch and never reached it.
	degraded atomic.Bool

	// done is closed when the worker goroutine exits (Close).
	done chan struct{}
}

// RunOpts tunes one run on the persistent runtime.
type RunOpts struct {
	// Grain is read by nothing. It stays only because the benchmark
	// driver's scheduler probe (atload) sets it, and goes with ROADMAP
	// item 0(d).
	Grain int
	// Watchdog, when positive, is the per-task deadline: a task running
	// longer marks its worker degraded and fails the run with a
	// *WatchdogError instead of blocking the caller. Zero disables the
	// watchdog.
	Watchdog time.Duration
}

// runReq is one run handed to the workers: the per-socket queues of item
// ids (folded onto the socket count), the one task function they execute
// through — a caller with thousands of homogeneous tasks per invocation
// allocates no closure per task — and the cursors every worker shares:
// next[s] is the next undrained entry of socket s's queue, advanced by the
// socket's own workers and by any other worker taking the rest.
type runReq struct {
	items    [][]int32
	run      func(team *Team, item int32)
	next     []atomic.Int64
	watchdog time.Duration
	// dispatched is the UnixNano time the request was handed to the
	// workers. The watchdog measures stuck time from the later of this and
	// the in-flight task's start, so a task (or a backlog of tasks)
	// belonging to an earlier run cannot fail this run until it has
	// monopolized a worker for a full deadline of this run's lifetime.
	dispatched int64
	// ctx, when non-nil, aborts the run between task executions: a
	// cancelled request stops draining its queues but never interrupts a
	// task mid-flight, so worker-local state stays consistent.
	ctx    context.Context
	stolen atomic.Int64

	// done closes when every participating worker has finished or been
	// abandoned; finished[w] flips exactly once per worker (by the worker
	// on completion or by the watchdog on abandonment) and pending counts
	// the workers still outstanding.
	done     chan struct{}
	pending  atomic.Int64
	finished []atomic.Bool

	// failed flips on the first task panic so all workers stop draining
	// this request's queues; err holds the first failure.
	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// cancelled reports whether the request's context has been cancelled.
func (req *runReq) cancelled() bool {
	return req.ctx != nil && req.ctx.Err() != nil
}

// aborted reports whether workers should stop picking up this request's
// tasks: the context was cancelled or a task already failed the run.
func (req *runReq) aborted() bool {
	return req.failed.Load() || req.cancelled()
}

// fail records the run's first error and stops further task pickup.
func (req *runReq) fail(err error) {
	req.errMu.Lock()
	if req.err == nil {
		req.err = err
	}
	req.errMu.Unlock()
	req.failed.Store(true)
}

// firstErr returns the recorded failure, if any.
func (req *runReq) firstErr() error {
	req.errMu.Lock()
	defer req.errMu.Unlock()
	return req.err
}

// markDone retires worker w's participation unless the watchdog already
// abandoned it.
func (req *runReq) markDone(w int) {
	if req.finished[w].CompareAndSwap(false, true) && req.pending.Add(-1) == 0 {
		close(req.done)
	}
}

// safeExec runs entry i of socket s's queue on the given team behind the
// panic boundary: a panicking task (or an injected fault) is converted into
// a *TaskPanicError that fails only this request.
func (req *runReq) safeExec(s, i int, team *Team) {
	item := req.items[s][i]
	defer func() {
		if p := recover(); p != nil {
			taskPanics.Add(1)
			req.fail(&TaskPanicError{Socket: team.Socket, Item: item, Value: p, Stack: debug.Stack()})
		}
	}()
	if err := faultinject.Do("sched.task"); err != nil {
		// Tasks have no error return; an armed error rule at this site
		// surfaces as a (recovered) panic.
		panic(err)
	}
	req.run(team, item)
}

// RunStats reports scheduling counters of one run.
type RunStats struct {
	// Stolen is the number of tasks executed by a worker of another socket
	// than the one owning the task's home queue.
	Stolen int64
}

var (
	runtimeMu sync.Mutex
	runtimes  = map[numa.Topology]*Runtime{}
)

// RuntimeFor returns the shared persistent runtime for a topology, starting
// its workers on first use. Runtimes live for the remainder of the process
// unless explicitly Closed — idle workers block on their channels and cost
// nothing but stack space.
func RuntimeFor(topo numa.Topology) *Runtime {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	if r, ok := runtimes[topo]; ok {
		return r
	}
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	r := &Runtime{topo: topo}
	for i := 0; i < topo.TotalCores(); i++ {
		w := &worker{
			reqCh: make(chan *runReq, 1),
			team:  Team{Socket: numa.Node(i / topo.CoresPerSocket)},
			done:  make(chan struct{}),
		}
		r.workers = append(r.workers, w)
		go r.workerLoop(i, w)
	}
	runtimes[topo] = r
	return r
}

// Topology returns the runtime's topology. topo is set once in RuntimeFor
// before the Runtime escapes; runtimeMu guards the registry, not the field.
func (r *Runtime) Topology() numa.Topology { return r.topo }

// DegradedSockets returns the sockets with a worker currently marked
// degraded by a watchdog, in ascending order.
func (r *Runtime) DegradedSockets() []int {
	var out []int
	for _, w := range r.workers {
		if s := int(w.team.Socket); w.degraded.Load() && (len(out) == 0 || out[len(out)-1] != s) {
			out = append(out, s)
		}
	}
	return out
}

// Close shuts the runtime's workers down and unregisters it from the
// process-wide registry, so a later RuntimeFor starts fresh. It blocks
// until every worker exited — a worker stuck in a task delays Close until
// that task returns. Close must not race with in-flight Run calls; it
// exists for tests (leak checks) and controlled teardown.
func (r *Runtime) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	runtimeMu.Lock()
	if runtimes[r.topo] == r {
		delete(runtimes, r.topo)
	}
	runtimeMu.Unlock()
	// Wait out abandoned async handoffs — their runs are done, so they
	// exit promptly — before closing the channels they may still be
	// trying to send on.
	r.handoffs.Wait()
	for _, w := range r.workers {
		close(w.reqCh)
	}
	for _, w := range r.workers {
		<-w.done
	}
}

// RunIndexedCtx executes queues of item ids through one shared task
// function on the persistent workers: queues[s] holds the items homed on
// socket s (indexes beyond the socket count fold back round-robin). Every
// worker drains its own socket's queue first and then whatever is left in
// the others', so every item runs exactly once — on its home socket while
// that socket's workers keep up, elsewhere otherwise — unless the run is
// cancelled or fails, and the call blocks until all workers finished. A nil
// ctx means an uncancellable run. Concurrent calls on the same runtime are
// safe; their tasks are serialized per worker, which bounds the
// process-wide parallelism to the topology — the point of a persistent
// worker pool. A non-nil error reports the run's first failure: a
// *TaskPanicError, a *WatchdogError, or ErrNoHealthyTeams. Cancellation is
// reported by the caller inspecting ctx, not through the returned error.
// The runtime only reads the queues.
func (r *Runtime) RunIndexedCtx(ctx context.Context, queues [][]int32, run func(team *Team, item int32), opts RunOpts) (RunStats, error) {
	return r.dispatch(&runReq{items: foldQueues(queues, r.topo.Sockets), run: run, watchdog: opts.Watchdog, ctx: ctx})
}

// foldQueues folds queue i onto socket i mod s. Queues already one per
// socket are returned as they are.
func foldQueues(queues [][]int32, s int) [][]int32 {
	if len(queues) == s {
		return queues
	}
	folded := make([][]int32, s)
	for i, q := range queues {
		folded[i%s] = append(folded[i%s], q...)
	}
	return folded
}

func (r *Runtime) dispatch(req *runReq) (RunStats, error) {
	req.next = make([]atomic.Int64, r.topo.Sockets)
	req.finished = make([]atomic.Bool, len(r.workers))
	req.done = make(chan struct{})

	// Degraded workers do not participate. Every queue is drained by
	// whichever healthy workers reach it, so none is lost.
	healthy := make([]int, 0, len(r.workers))
	for i, w := range r.workers {
		if !w.degraded.Load() {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 {
		return RunStats{}, ErrNoHealthyTeams
	}
	req.pending.Store(int64(len(healthy)))
	req.dispatched = time.Now().UnixNano()

	for _, i := range healthy {
		w := r.workers[i]
		select {
		case w.reqCh <- req:
		default:
			// The worker is backed up behind an earlier request. Hand off
			// asynchronously so a worker hung in another run cannot wedge
			// this dispatch; the send is abandoned once this run finishes
			// (e.g. the watchdog retired the worker). A worker receiving a
			// request that is already done skips all of its queues and
			// merely re-proves its liveness.
			r.handoffs.Add(1)
			go func(w *worker) {
				defer r.handoffs.Done()
				select {
				case w.reqCh <- req:
				case <-req.done:
				}
			}(w)
		}
	}
	if req.watchdog > 0 {
		go r.watchdogLoop(req, healthy)
	}
	<-req.done
	return RunStats{Stolen: req.stolen.Load()}, req.firstErr()
}

// watchdogLoop polls the participating workers' in-flight task start times
// and abandons any worker one task has monopolized for the request's
// watchdog deadline: the worker is marked degraded, the run fails with a
// *WatchdogError, and the run's completion no longer waits on that worker.
// Stuck time is measured from the later of the task's start and this
// request's dispatch, so a task legitimately started under an earlier run —
// or a backlog of short tasks queued ahead of this one — never degrades a
// worker that keeps making progress. The stuck worker itself keeps running;
// the degraded mark clears when it next finishes a request, or right here
// if the task turns out to have completed while the worker was being
// retired.
func (r *Runtime) watchdogLoop(req *runReq, participants []int) {
	interval := req.watchdog / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-req.done:
			return
		case <-ticker.C:
			now := time.Now().UnixNano()
			for _, i := range participants {
				if req.finished[i].Load() {
					continue
				}
				w := r.workers[i]
				start := w.taskStart.Load()
				if start == 0 {
					// The worker is idle: this request is merely queued
					// (or still in handoff), not stuck.
					continue
				}
				eff := start
				if req.dispatched > eff {
					eff = req.dispatched
				}
				if time.Duration(now-eff) < req.watchdog {
					continue
				}
				// Mark degraded before retiring the worker so a caller
				// retrying right after the error skips it. Retire via CAS
				// rather than markDone so the error is recorded before
				// done closes.
				w.degraded.Store(true)
				if !req.finished[i].CompareAndSwap(false, true) {
					// The worker retired itself concurrently — it is
					// alive after all.
					w.degraded.Store(false)
					continue
				}
				watchdogTimeouts.Add(1)
				req.fail(&WatchdogError{Socket: w.team.Socket, Elapsed: time.Duration(now - eff)})
				if req.pending.Add(-1) == 0 {
					close(req.done)
				}
				if w.taskStart.Load() != start {
					// The task judged stuck completed while the worker was
					// being retired: it proved itself alive and may
					// already be idle, so heal now instead of waiting for
					// a request that might never be delivered.
					w.degraded.Store(false)
				}
			}
		}
	}
}

// workerLoop is worker i of its socket. For every request it drains its own
// socket's queue — the paper's placement (§III-F): a pair runs where its A
// tile-row lives — and then, instead of idling while another socket still
// has a backlog, what is left in the other sockets' queues, round-robin
// from its neighbour on. Quadtree cuts routinely home most tile-rows of a
// matrix on one socket, so strict pinning leaves the other sockets idle for
// most of a multiplication (EXPERIMENTS.md, "Dry teams take the rest"); the
// remote reads a taken task costs show up in numa.Stats, not in the result,
// whose tiles are homed by placement (core.Config.HomeOfRow).
func (r *Runtime) workerLoop(i int, w *worker) {
	defer close(w.done)
	n, home := r.topo.Sockets, int(w.team.Socket)
	for req := range w.reqCh {
		for off := 0; off < n; off++ {
			q := (home + off) % n
			for !req.aborted() && !req.finished[i].Load() {
				k := int(req.next[q].Add(1) - 1)
				if k >= len(req.items[q]) {
					break
				}
				w.taskStart.Store(time.Now().UnixNano())
				req.safeExec(q, k, &w.team)
				w.taskStart.Store(0)
				if off > 0 {
					req.stolen.Add(1)
				}
			}
		}
		req.markDone(i)
		// Finishing a request — any request — proves this worker is alive:
		// clear a degraded mark left by a watchdog, including one from a
		// run whose dispatch handoff was abandoned before ever reaching
		// this worker (that run can never be redelivered to heal it).
		w.degraded.Store(false)
	}
}
