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

// Runtime is the persistent incarnation of the two-level scheduler: it
// starts Sockets × CoresPerSocket long-lived worker goroutines once and
// serves every subsequent run and ParallelRows over channels, the way the
// paper's SAP HANA task framework keeps socket-pinned worker teams alive
// across operator invocations (§III-F). A run or a fan-out costs one channel
// handoff, not a goroutine, and every worker has a stable identity that
// per-worker scratch arenas key off (see Team.WorkerLocal). It is the only
// scheduler.
//
// The runtime is also the process's panic domain boundary: a panic inside a
// task body (including its ParallelRows fan-out) is recovered on the worker,
// converted to a *TaskPanicError, and fails only the run that owned the
// task. A run may additionally arm a per-task watchdog; a task monopolizing
// a leader past the deadline — measured from the later of the task's start
// and the run's dispatch, so backlog from concurrent runs does not count —
// marks the owning team degraded and fails the run with a *WatchdogError
// instead of blocking the caller forever. Degraded teams are skipped by
// later runs (their queues are refolded onto healthy teams) and self-heal
// as soon as their leader finishes any request, the proof that the stuck
// task has returned.
//
// Tasks must not start a run from inside a task: the leader executing the
// outer task would never pick up the nested request. None of the operators
// in this repository nest runs.
type Runtime struct {
	topo   numa.Topology
	teams  []*workerTeam
	closed atomic.Bool

	// handoffs tracks the async dispatch senders (see dispatch). Close
	// drains it before closing the leader channels, so an abandoned
	// handoff can never race a channel close: once its request is done,
	// a sender exits promptly.
	handoffs sync.WaitGroup
}

// workerTeam is the persistent backing of one socket's team: a leader
// goroutine that drains task queues and size-1 helper goroutines that serve
// the leader's intra-tile row fan-outs.
type workerTeam struct {
	rt     *Runtime
	socket numa.Node
	size   int

	leaderCh chan *runReq
	jobCh    chan rowJob

	// wg is the reusable intra-tile barrier. Only this team's leader runs
	// ParallelRows (tasks execute on the leader, one at a time), so the
	// WaitGroup is never used by two fan-outs concurrently.
	wg sync.WaitGroup

	// locals holds one arbitrary per-worker storage slot per team worker.
	// Slot w is owned exclusively by whichever goroutine currently executes
	// worker w's chunk; the channel/WaitGroup handoffs order all accesses.
	locals []any

	// taskStart is the UnixNano start time of the leader's in-flight task,
	// 0 while idle; run watchdogs read it to detect stuck tasks.
	taskStart atomic.Int64

	// degraded marks a team abandoned by a watchdog. Dispatch skips
	// degraded teams; the leader clears the flag whenever it finishes a
	// request — proof that it is alive — so a team heals even when the
	// run that degraded it was abandoned in dispatch and never reached
	// this leader.
	degraded atomic.Bool

	// fanoutPanic holds the first panic of the current ParallelRows
	// fan-out's helper chunks. Only one fan-out runs per team at a time,
	// so a single slot suffices.
	fanoutPanic atomic.Pointer[fanoutPanic]

	// leaderDone is closed when the leader goroutine exits (Close);
	// helpersDone tracks the helper goroutines.
	leaderDone  chan struct{}
	helpersDone sync.WaitGroup
}

// rowJob is one intra-tile work item: a row chunk of the current tile
// multiplication, executed by a helper worker.
type rowJob struct {
	lo, hi, worker int
	f              func(lo, hi, worker int)
	wg             *sync.WaitGroup
}

// RunOpts tunes one run on the persistent runtime.
type RunOpts struct {
	// Grain is the minimum number of rows per worker in ParallelRows
	// (see Team.Grain).
	Grain int
	// Watchdog, when positive, is the per-task deadline: a task running
	// longer marks its team degraded and fails the run with a
	// *WatchdogError instead of blocking the caller. Zero disables the
	// watchdog.
	Watchdog time.Duration
}

// runReq is one run handed to the leaders: the per-socket queues of item
// ids (folded onto the socket count), the one task function they execute
// through — a caller with thousands of homogeneous tasks per invocation
// allocates no closure per task — and the cursors every team shares:
// next[s] is the next undrained entry of socket s's queue, advanced by the
// home team and by any dry team taking the rest.
type runReq struct {
	items    [][]int32
	run      func(team *Team, item int32)
	next     []atomic.Int64
	grain    int
	watchdog time.Duration
	// dispatched is the UnixNano time the request was handed to the
	// leaders. The watchdog measures stuck time from the later of this and
	// the in-flight task's start, so a task (or a backlog of tasks)
	// belonging to an earlier run cannot fail this run until it has
	// monopolized a leader for a full deadline of this run's lifetime.
	dispatched int64
	// ctx, when non-nil, aborts the run between task executions: a
	// cancelled request stops draining its queues but never interrupts a
	// task mid-flight, so worker-local state stays consistent.
	ctx    context.Context
	stolen atomic.Int64

	// done closes when every participating team has finished or been
	// abandoned; finished[s] flips exactly once per socket (by the leader
	// on completion or by the watchdog on abandonment) and pending counts
	// the sockets still outstanding.
	done     chan struct{}
	pending  atomic.Int64
	finished []atomic.Bool

	// failed flips on the first task panic so all teams stop draining this
	// request's queues; err holds the first failure.
	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// cancelled reports whether the request's context has been cancelled.
func (req *runReq) cancelled() bool {
	return req.ctx != nil && req.ctx.Err() != nil
}

// aborted reports whether leaders should stop picking up this request's
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

// markDone retires socket s's participation exactly once, whether called by
// the leader on completion or by the watchdog on abandonment. It reports
// whether this call was the one that retired the socket.
func (req *runReq) markDone(s int) bool {
	if !req.finished[s].CompareAndSwap(false, true) {
		return false
	}
	if req.pending.Add(-1) == 0 {
		close(req.done)
	}
	return true
}

// safeExec runs entry i of socket s's queue on the given team behind the
// panic boundary: a panicking task (or an injected fault) is converted into
// a *TaskPanicError that fails only this request. Panics surfacing from
// ParallelRows helper chunks arrive as *fanoutPanic values carrying the
// original goroutine's stack.
func (req *runReq) safeExec(s, i int, team *Team) {
	item := req.items[s][i]
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		stack := debug.Stack()
		if fp, ok := p.(*fanoutPanic); ok {
			p, stack = fp.value, fp.stack
		}
		taskPanics.Add(1)
		req.fail(&TaskPanicError{Socket: team.Socket, Item: item, Value: p, Stack: stack})
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
	// Stolen is the number of tasks executed by a team other than the one
	// owning the task's home queue.
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
	for s := 0; s < topo.Sockets; s++ {
		t := &workerTeam{
			rt:         r,
			socket:     numa.Node(s),
			size:       topo.CoresPerSocket,
			leaderCh:   make(chan *runReq, 1),
			jobCh:      make(chan rowJob, topo.CoresPerSocket),
			locals:     make([]any, topo.CoresPerSocket),
			leaderDone: make(chan struct{}),
		}
		r.teams = append(r.teams, t)
		go r.leaderLoop(t)
		t.helpersDone.Add(t.size - 1)
		for w := 1; w < t.size; w++ {
			go t.helperLoop()
		}
	}
	runtimes[topo] = r
	return r
}

// Topology returns the runtime's topology. topo is set once in RuntimeFor
// before the Runtime escapes; runtimeMu guards the registry, not the field.
func (r *Runtime) Topology() numa.Topology { return r.topo }

// DegradedSockets returns the sockets currently marked degraded by a
// watchdog, in ascending order.
func (r *Runtime) DegradedSockets() []int {
	var out []int
	for s, t := range r.teams {
		if t.degraded.Load() {
			out = append(out, s)
		}
	}
	return out
}

// Close shuts the runtime's workers down and unregisters it from the
// process-wide registry, so a later RuntimeFor starts fresh. It blocks
// until every leader and helper exited — a leader stuck in a task delays
// Close until that task returns. Close must not race with in-flight Run
// calls; it exists for tests (leak checks) and controlled teardown.
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
	for _, t := range r.teams {
		close(t.leaderCh)
	}
	for _, t := range r.teams {
		<-t.leaderDone
	}
	// Helpers only receive jobs from their (now exited) leader, so the job
	// channels are quiescent and safe to close.
	for _, t := range r.teams {
		close(t.jobCh)
	}
	for _, t := range r.teams {
		t.helpersDone.Wait()
	}
}

// RunIndexedCtx executes queues of item ids through one shared task
// function on the persistent teams: queues[s] holds the items homed on
// socket s (indexes beyond the socket count fold back round-robin). Every
// team drains its own queue first and then whatever is left in the others',
// so every item runs exactly once — on its home team while that team keeps
// up, on a dry one otherwise — unless the run is cancelled or fails, and the
// call blocks until all teams finished. A nil ctx means an uncancellable
// run. Concurrent calls on the same runtime are safe; their tasks are
// serialized per leader, which bounds the process-wide parallelism to the
// topology — the point of a persistent worker pool. A non-nil error reports
// the run's first failure: a *TaskPanicError, a *WatchdogError, or
// ErrNoHealthyTeams. Cancellation is reported by the caller inspecting ctx,
// not through the returned error.
func (r *Runtime) RunIndexedCtx(ctx context.Context, queues [][]int32, run func(team *Team, item int32), opts RunOpts) (RunStats, error) {
	return r.dispatch(&runReq{items: foldQueues(queues, len(r.teams)), run: run, grain: opts.Grain, watchdog: opts.Watchdog, ctx: ctx})
}

// foldQueues folds queue i onto socket i mod s.
func foldQueues(queues [][]int32, s int) [][]int32 {
	folded := make([][]int32, s)
	for i, q := range queues {
		folded[i%s] = append(folded[i%s], q...)
	}
	return folded
}

func (r *Runtime) dispatch(req *runReq) (RunStats, error) {
	n := len(r.teams)
	req.next = make([]atomic.Int64, n)
	req.finished = make([]atomic.Bool, n)
	req.done = make(chan struct{})

	// Degraded teams do not participate: their queues are refolded onto
	// healthy teams so no task is lost, and their finished slots are
	// pre-retired.
	healthy := make([]int, 0, n)
	for s, t := range r.teams {
		if !t.degraded.Load() {
			healthy = append(healthy, s)
		}
	}
	if len(healthy) == 0 {
		return RunStats{}, ErrNoHealthyTeams
	}
	if len(healthy) < n {
		for s, t := range r.teams {
			if !t.degraded.Load() {
				continue
			}
			dst := healthy[s%len(healthy)]
			req.items[dst] = append(req.items[dst], req.items[s]...)
			req.items[s] = nil
			req.finished[s].Store(true)
		}
	}
	req.pending.Store(int64(len(healthy)))
	req.dispatched = time.Now().UnixNano()

	for _, s := range healthy {
		t := r.teams[s]
		select {
		case t.leaderCh <- req:
		default:
			// The leader is backed up behind an earlier request. Hand off
			// asynchronously so a team hung in another run cannot wedge
			// this dispatch; the send is abandoned once this run finishes
			// (e.g. the watchdog retired the team). A leader receiving a
			// request that is already done skips all of its queues and
			// merely re-proves its liveness.
			r.handoffs.Add(1)
			go func(t *workerTeam) {
				defer r.handoffs.Done()
				select {
				case t.leaderCh <- req:
				case <-req.done:
				}
			}(t)
		}
	}
	if req.watchdog > 0 {
		go r.watchdogLoop(req, healthy)
	}
	<-req.done
	return RunStats{Stolen: req.stolen.Load()}, req.firstErr()
}

// watchdogLoop polls the participating teams' in-flight task start times
// and abandons any team one task has monopolized for the request's watchdog
// deadline: the team is marked degraded, the run fails with a
// *WatchdogError, and the run's completion no longer waits on that team.
// Stuck time is measured from the later of the task's start and this
// request's dispatch, so a task legitimately started under an earlier run —
// or a backlog of short tasks queued ahead of this one — never degrades a
// team that keeps making progress. The stuck leader itself keeps running;
// the degraded mark clears when the leader next finishes a request, or
// right here if the task turns out to have completed while the team was
// being retired.
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
			for _, s := range participants {
				if req.finished[s].Load() {
					continue
				}
				t := r.teams[s]
				start := t.taskStart.Load()
				if start == 0 {
					// The leader is idle: this request is merely queued
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
				// Mark degraded before retiring the socket so a caller
				// retrying right after the error skips this team. Retire
				// via CAS rather than markDone so the error is recorded
				// before done closes.
				t.degraded.Store(true)
				if !req.finished[s].CompareAndSwap(false, true) {
					// The leader retired the socket concurrently — it is
					// alive after all.
					t.degraded.Store(false)
					continue
				}
				watchdogTimeouts.Add(1)
				req.fail(&WatchdogError{Socket: t.socket, Elapsed: time.Duration(now - eff)})
				if req.pending.Add(-1) == 0 {
					close(req.done)
				}
				if t.taskStart.Load() != start {
					// The task judged stuck completed while the team was
					// being retired: the leader proved itself alive and
					// may already be idle, so heal now instead of waiting
					// for a request that might never be delivered.
					t.degraded.Store(false)
				}
			}
		}
	}
}

// leaderLoop is the per-socket leader. For every request it drains its own
// socket's queue — the paper's placement (§III-F): a pair runs where its A
// tile-row lives — and then, instead of idling while another team still has
// a backlog, what is left in the other sockets' queues, round-robin from
// its neighbour on. Quadtree cuts routinely home most tile-rows of a matrix
// on one socket, so strict pinning leaves the other teams idle for most of
// a multiplication (EXPERIMENTS.md, "Dry teams take the rest"); the remote
// reads a taken task costs show up in numa.Stats, not in the result, whose
// tiles are homed by placement (core.Config.HomeOfRow). Tasks run on the
// leader goroutine itself; only ParallelRows fans out to the helpers.
func (r *Runtime) leaderLoop(t *workerTeam) {
	defer close(t.leaderDone)
	sock := int(t.socket)
	for req := range t.leaderCh {
		team := &Team{Socket: t.socket, Workers: t.size, Grain: req.grain, home: t}
		for off := 0; off < len(r.teams); off++ {
			victim := (sock + off) % len(r.teams)
			for !req.aborted() && !req.finished[sock].Load() {
				i := int(req.next[victim].Add(1) - 1)
				if i >= len(req.items[victim]) {
					break
				}
				t.taskStart.Store(time.Now().UnixNano())
				req.safeExec(victim, i, team)
				t.taskStart.Store(0)
				if off > 0 {
					req.stolen.Add(1)
				}
			}
		}
		req.markDone(sock)
		// Finishing a request — any request — proves this leader is alive:
		// clear a degraded mark left by a watchdog, including one from a
		// run whose dispatch handoff was abandoned before ever reaching
		// this leader (that run can never be redelivered to heal us).
		t.degraded.Store(false)
	}
}

// helperLoop serves the intra-tile row chunks of this team's leader.
func (t *workerTeam) helperLoop() {
	defer t.helpersDone.Done()
	for j := range t.jobCh {
		t.runJob(j)
	}
}

// runJob executes one row chunk behind the fan-out panic boundary: a panic
// is parked in the team's fanoutPanic slot (first one wins) for the leader
// to re-raise after the barrier, and the WaitGroup is always released.
func (t *workerTeam) runJob(j rowJob) {
	defer j.wg.Done()
	if fp := runChunk(j.f, j.lo, j.hi, j.worker); fp != nil {
		t.fanoutPanic.CompareAndSwap(nil, fp)
	}
}
