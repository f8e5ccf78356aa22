// Package service implements the job layer of the serving stack: an
// admission-controlled queue in front of core.MultiplyOpt and the
// expression engine (internal/expr). Requests against cataloged matrices
// are admitted into a bounded queue (rejected with backpressure when
// full), executed under per-job deadlines by a fixed worker pool — at
// most one in-flight multiplication per simulated socket by default, since
// every ATMULT spreads over all workers and the persistent runtime
// serializes excess requests per worker anyway — and accounted in
// aggregate metrics the HTTP front-end exposes. Multi-operand chains and
// expressions share one planning code path: both lower to an expression
// plan whose chains are association-ordered by the density DP and
// executed fused where the planner accepts it.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/core"
	"atmatrix/internal/expr"
	"atmatrix/internal/faultinject"
	"atmatrix/internal/sched"
)

var (
	// ErrQueueFull reports that the admission queue is at capacity; the
	// caller should back off and retry (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining reports that the manager is shutting down and admits no
	// new jobs (HTTP 503).
	ErrDraining = errors.New("service: shutting down")
	// ErrBadRequest reports a structurally invalid request.
	ErrBadRequest = errors.New("service: bad request")
	// ErrQuarantined reports a request blocked by quarantine: it either
	// names an individually quarantined matrix (one whose on-disk stream
	// failed verification, or the common factor of kernel panics across
	// different co-operands) or reproduces a quarantined operand
	// combination (one whose multiply panicked the kernel). Quarantined
	// requests fail fast (HTTP 422) instead of burning worker time on a
	// poisoned operand; deleting and re-loading an implicated matrix lifts
	// its quarantine and every combination it belongs to.
	ErrQuarantined = errors.New("service: matrix quarantined")
)

// failureClass buckets job errors for the retry policy.
type failureClass int

const (
	// failPermanent errors fail the job immediately: bad requests, missing
	// matrices, kernel panics, corrupt data.
	failPermanent failureClass = iota
	// failTransient errors are retried with backoff under the job's
	// deadline: watchdog timeouts, all-teams-degraded windows, injected
	// transient faults — anything implementing Transient() bool → true.
	failTransient
	// failCanceled errors mean the job's own deadline or the drain cancel
	// fired; never retried, accounted as canceled rather than failed.
	failCanceled
)

// classify maps a job error to its failure class. The transient marker
// interface is how lower layers (sched.WatchdogError, ErrNoHealthyTeams,
// injected faults) opt into retries without this package enumerating them.
func classify(err error) failureClass {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return failCanceled
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) && tr.Transient() {
		return failTransient
	}
	return failPermanent
}

// Options tunes the manager.
type Options struct {
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrQueueFull. Zero defaults to 4 × Workers.
	QueueDepth int
	// Workers is the number of jobs executed concurrently. Zero defaults
	// to the topology's socket count: each ATMULT spreads over every
	// socket's queue and the persistent runtime runs one task at a time
	// per worker, so many more in-flight multiplies only add queueing
	// inside the scheduler.
	Workers int
	// DefaultTimeout is applied to jobs that do not carry their own
	// deadline; zero means no deadline.
	DefaultTimeout time.Duration
	// MaxRetries bounds how often a transiently-failed job is re-executed
	// (total attempts = 1 + MaxRetries). Zero defaults to 2; negative
	// disables retries.
	MaxRetries int
	// RetryBase is the first backoff delay; each retry doubles it up to
	// RetryMax, and the actual sleep is jittered to half-to-full of the
	// computed delay. Zero defaults to 50ms (base) and 2s (max).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Watchdog is the per-tile-task deadline handed to the scheduler: a
	// kernel task running longer degrades its team and fails the attempt
	// with a transient (hence retried) error. Zero disables the watchdog.
	Watchdog time.Duration
	// Verify is the number of Freivalds verification rounds run over every
	// multiply result (see core.VerifyProduct); zero disables verification.
	// A verification failure is treated as transient exactly once — the job
	// is re-executed through the normal backoff in case the corruption was
	// a one-off — and fails permanently with core.ErrVerifyFailed when the
	// retry fails verification too.
	Verify int
	// Distribute, when non-nil, executes pair multiplications in place of
	// the local operator — the hook a cluster coordinator installs to shard
	// the work across worker nodes. The implementation owns its own
	// fallback to local execution; errors it returns flow through the same
	// classify/retry/quarantine machinery as local ones, so a corrupt wire
	// transfer (core.ErrChecksum under the hood) quarantines the operand
	// combination exactly like corrupt local data would. Chain and
	// expression jobs always execute locally. The catalog names of the
	// operands ride along so a sharded-catalog coordinator can execute by
	// (name, generation, shard) reference instead of shipping the bytes.
	Distribute func(aName, bName string, a, b *core.ATMatrix, opts core.MultOptions) (*core.ATMatrix, *core.MultStats, error)
}

// Request describes one job: a pair multiplication (A, B), a chain of
// three or more operands, or an expression over catalog names — exactly
// one of the three forms.
type Request struct {
	A, B  string
	Chain []string
	// Expr is an expression over catalog matrix names ("A*B*C",
	// "pow(P,20)*x", "0.85*M*r + v") evaluated by internal/expr.
	Expr string
	// Bindings maps expression identifiers to catalog names, for catalog
	// entries whose names are not valid identifiers (or to reuse one
	// expression against different operands). Unbound identifiers resolve
	// to the catalog name equal to the identifier itself.
	Bindings map[string]string
	// Iterations, when positive, overrides every pow() exponent in Expr —
	// the power-iteration count knob.
	Iterations int
	// Store, when non-empty, repartitions the result adaptively and
	// admits it into the catalog under this name.
	Store string
	// Pin pins the stored result against eviction.
	Pin bool
	// Timeout overrides the manager's default per-job deadline.
	Timeout time.Duration
}

// names returns the operand list of a pair or chain request (expression
// requests derive theirs from the parsed tree at admission).
func (r *Request) names() []string {
	if len(r.Chain) > 0 {
		return r.Chain
	}
	return []string{r.A, r.B}
}

func (r *Request) validate() error {
	forms := 0
	if r.Expr != "" {
		forms++
	}
	if len(r.Chain) > 0 {
		forms++
	}
	if r.A != "" || r.B != "" {
		forms++
	}
	if forms > 1 {
		return fmt.Errorf("%w: give exactly one of a/b, chain, or expr", ErrBadRequest)
	}
	if len(r.Bindings) > 0 && r.Expr == "" {
		return fmt.Errorf("%w: bindings require an expression", ErrBadRequest)
	}
	switch {
	case r.Expr != "":
		if r.Iterations < 0 {
			return fmt.Errorf("%w: negative iterations", ErrBadRequest)
		}
		return nil
	case len(r.Chain) > 0:
		if len(r.Chain) < 2 {
			return fmt.Errorf("%w: chain needs at least two operands", ErrBadRequest)
		}
		return nil
	default:
		if r.A == "" || r.B == "" {
			return fmt.Errorf("%w: both operand names required", ErrBadRequest)
		}
		return nil
	}
}

// Result summarizes a completed job.
type Result struct {
	Rows        int           `json:"rows"`
	Cols        int           `json:"cols"`
	NNZ         int64         `json:"nnz"`
	Bytes       int64         `json:"bytes"`
	TilesSparse int           `json:"tiles_sparse"`
	TilesDense  int           `json:"tiles_dense"`
	Stored      string        `json:"stored,omitempty"`
	ChainExpr   string        `json:"chain_expr,omitempty"`
	Wall        time.Duration `json:"wall_ns"`
	Queue       time.Duration `json:"queue_ns"`

	// Expression/chain observability: the plan echo (association order,
	// fusion strategy, estimated cost/fill) and the executed stages with
	// their per-step shapes, fill, and kernel routing.
	Plan                  *expr.Summary    `json:"plan,omitempty"`
	Steps                 []core.ChainStep `json:"steps,omitempty"`
	FusedStages           int              `json:"fused_stages,omitempty"`
	PlanTime              time.Duration    `json:"plan_time_ns,omitempty"`
	PeakIntermediateBytes int64            `json:"peak_intermediate_bytes,omitempty"`
}

// Job is one admitted request. Done is closed when the job finishes;
// Result/Err are valid after that.
type Job struct {
	req      Request
	ast      expr.Node // non-nil for expression and chain jobs
	names    []string  // catalog names of the operands
	vars     []string  // expression identifiers, aligned with names
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time

	Done   chan struct{}
	Result *Result
	Err    error
}

// Manager owns the admission queue and the worker pool.
type Manager struct {
	cat  *catalog.Catalog
	cfg  core.Config
	opts Options

	queue    chan *Job
	rootCtx  context.Context
	rootStop context.CancelFunc
	workers  sync.WaitGroup

	admitMu sync.RWMutex
	closed  bool

	// quarMu guards the quarantine state. quarantined maps individually
	// poisoned matrix names to reasons; quarCombos holds operand
	// combinations implicated in a kernel panic, keyed by comboKey;
	// implicated records, per matrix, the combination keys it has panicked
	// in, driving escalation to individual quarantine (see
	// QuarantinePanic).
	quarMu      sync.Mutex
	quarantined map[string]string
	quarCombos  map[string]comboQuarantine
	implicated  map[string]map[string]struct{}

	m metrics
}

// metrics holds the manager's counters. accepted = completed + failed +
// canceled + queued + inflight at every instant (queued and inflight are
// gauges, the rest monotonic).
type metrics struct {
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	inflight  atomic.Int64
	retries   atomic.Int64

	// verifyFailed counts executions whose result failed Freivalds
	// verification (each failed attempt counts, including the retried one).
	verifyFailed atomic.Int64

	// Expression-engine counters: evalJobs counts jobs executed through the
	// expression planner (expression and chain requests), fusedStages the
	// fused stage applications that never materialized an intermediate, and
	// planTimeNS the cumulative planning time.
	evalJobs    atomic.Int64
	fusedStages atomic.Int64
	planTimeNS  atomic.Int64

	// Aggregated core.MultStats across completed jobs.
	statMu      sync.Mutex
	mult        core.MultStats
	latencies   []time.Duration // ring buffer of recent job latencies
	latencyNext int
}

const latencyWindow = 1024

// New starts a manager over the catalog. The manager multiplies with the
// catalog's configuration.
func New(cat *catalog.Catalog, opts Options) *Manager {
	cfg := cat.Config()
	if opts.Workers <= 0 {
		opts.Workers = cfg.Topology.Sockets
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.Workers
	}
	switch {
	case opts.MaxRetries == 0:
		opts.MaxRetries = 2
	case opts.MaxRetries < 0:
		opts.MaxRetries = 0
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	// The manager owns its lifecycle: this is the process-internal root
	// that Stop cancels; per-job deadlines nest under it.
	//atlint:ignore ctxflow deliberate lifecycle root, cancelled by Stop
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cat:         cat,
		cfg:         cfg,
		opts:        opts,
		queue:       make(chan *Job, opts.QueueDepth),
		rootCtx:     ctx,
		rootStop:    stop,
		quarantined: make(map[string]string),
		quarCombos:  make(map[string]comboQuarantine),
		implicated:  make(map[string]map[string]struct{}),
	}
	m.m.latencies = make([]time.Duration, 0, latencyWindow)
	for i := 0; i < opts.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates and admits a job without blocking: a full queue returns
// ErrQueueFull immediately (the backpressure signal), a draining manager
// ErrDraining. The returned job completes asynchronously; wait on Done.
func (m *Manager) Submit(req Request) (*Job, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	names := req.names()
	vars := names
	var ast expr.Node
	switch {
	case req.Expr != "":
		node, err := expr.Parse(req.Expr)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		ast = node
		vars = expr.Vars(node)
		names = make([]string, len(vars))
		for i, v := range vars {
			names[i] = v
			if cn, ok := req.Bindings[v]; ok && cn != "" {
				names[i] = cn
			}
		}
		for k := range req.Bindings {
			bound := false
			for _, v := range vars {
				if v == k {
					bound = true
					break
				}
			}
			if !bound {
				return nil, fmt.Errorf("%w: binding %q names no identifier of the expression", ErrBadRequest, k)
			}
		}
	case len(req.Chain) > 0:
		// A chain is sugar for the product expression over its operands;
		// lowering it here keeps a single planning code path for every
		// multi-operand multiplication.
		factors := make([]expr.Node, len(req.Chain))
		for i, n := range req.Chain {
			factors[i] = &expr.Ident{Name: n}
		}
		ast = &expr.Mul{Factors: factors}
	}
	if name, reason, ok := m.quarantinedOperand(names); ok {
		m.m.rejected.Add(1)
		return nil, fmt.Errorf("%w: %q (%s)", ErrQuarantined, name, reason)
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = m.opts.DefaultTimeout
	}
	m.admitMu.RLock()
	defer m.admitMu.RUnlock()
	if m.closed {
		m.m.rejected.Add(1)
		return nil, ErrDraining
	}
	ctx := m.rootCtx
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	job := &Job{req: req, ast: ast, names: names, vars: vars, ctx: ctx, cancel: cancel, enqueued: time.Now(), Done: make(chan struct{})}
	select {
	case m.queue <- job:
		m.m.accepted.Add(1)
		return job, nil
	default:
		cancel()
		m.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// Wait blocks until the job finishes and returns its result.
func (j *Job) Wait() (*Result, error) {
	<-j.Done
	return j.Result, j.Err
}

// worker drains the queue until it is closed by Close.
func (m *Manager) worker() {
	defer m.workers.Done()
	for job := range m.queue {
		m.run(job)
	}
}

// run executes one job end to end: the first attempt plus up to MaxRetries
// re-executions of transient failures, each separated by capped exponential
// backoff with jitter slept under the job's own deadline. Permanent kernel
// panics additionally quarantine the job's operand combination — data that
// keeps crashing the multiply must not be allowed to take out worker after
// worker, but a single panic implicates the interaction, not yet any one
// matrix (see QuarantinePanic for the escalation rule).
func (m *Manager) run(job *Job) {
	m.m.inflight.Add(1)
	defer job.cancel()
	queueWait := time.Since(job.enqueued)

	var (
		res         *Result
		err         error
		verifyFails int
	)
	for attempt := 0; ; attempt++ {
		res, err = m.execute(job)
		if err != nil && errors.Is(err, core.ErrVerifyFailed) {
			// A failed Freivalds check means the multiply produced a wrong
			// product. Give the job exactly one fresh execution — a
			// transient bit flip will not reproduce — then fail permanently:
			// a result that is wrong twice points at the data or the
			// kernel, and re-running forever would just serve wrong answers
			// slowly.
			m.m.verifyFailed.Add(1)
			if verifyFails++; verifyFails > 1 || m.opts.MaxRetries <= 0 {
				break
			}
			m.m.retries.Add(1)
			if !m.backoff(job.ctx, attempt) {
				err = job.ctx.Err()
				break
			}
			continue
		}
		if err == nil || classify(err) != failTransient || attempt >= m.opts.MaxRetries {
			break
		}
		m.m.retries.Add(1)
		if !m.backoff(job.ctx, attempt) {
			err = job.ctx.Err()
			break
		}
	}
	// The job leaves the in-flight gauge before it enters an outcome
	// counter, which Metrics reads first: a snapshot may miss the job in
	// that handoff but never counts it twice, and once Done is closed the
	// counters add up.
	m.m.inflight.Add(-1)
	if err == nil {
		res.Queue = queueWait
		job.Result = res
		m.m.completed.Add(1)
		m.m.observeLatency(queueWait + res.Wall)
	} else {
		job.Err = err
		if classify(err) == failCanceled {
			m.m.canceled.Add(1)
		} else {
			m.m.failed.Add(1)
			var tpe *sched.TaskPanicError
			var spe *expr.StagePanicError
			switch {
			case errors.As(err, &tpe):
				m.QuarantinePanic(job.names, fmt.Sprintf("kernel panic during multiply: %v", tpe.Value))
			case errors.As(err, &spe):
				// A panicking executor stage is as damning as a panicking
				// kernel: block the operand combination that triggered it.
				m.QuarantinePanic(job.names, fmt.Sprintf("expression stage panic in %s: %v", spe.Stage, spe.Val))
			case errors.Is(err, core.ErrChecksum) || errors.Is(err, core.ErrBadMagic):
				// A distributed multiply exhausted every worker on corrupt
				// tile transfers of exactly these operands. Local data is
				// verified at load time, so the stream damage tracks the
				// combination being shipped — block it rather than burning
				// the cluster on re-encoding it forever.
				m.QuarantinePanic(job.names, fmt.Sprintf("corrupt tile transfer: %v", err))
			}
		}
	}
	close(job.Done)
}

// backoff sleeps the attempt's retry delay — RetryBase doubled per attempt,
// capped at RetryMax, jittered uniformly over the upper half so synchronized
// retries from concurrent jobs spread out — and reports false if the job's
// context expired first.
func (m *Manager) backoff(ctx context.Context, attempt int) bool {
	d := m.opts.RetryBase << uint(attempt)
	if d <= 0 || d > m.opts.RetryMax {
		d = m.opts.RetryMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// comboQuarantine is one quarantined operand combination: the kernel
// panicked while multiplying exactly these matrices together, so the
// combination is blocked while each member stays usable with other
// co-operands (until repeat offenses escalate it — see QuarantinePanic).
type comboQuarantine struct {
	names  []string
	reason string
}

// comboKey canonicalizes an operand set: sorted, deduplicated, joined into
// a human-readable key ("a × b") that doubles as the entry's display name.
func comboKey(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, n := range sorted {
		if i == 0 || n != sorted[i-1] {
			uniq = append(uniq, n)
		}
	}
	return strings.Join(uniq, " × ")
}

// Quarantine marks a single matrix as poisoned: later Submits naming it
// fail fast with ErrQuarantined. The first reason sticks. This is the
// individual path, used for matrices whose on-disk stream failed
// verification; kernel panics go through QuarantinePanic instead.
func (m *Manager) Quarantine(name, reason string) {
	m.quarMu.Lock()
	if _, ok := m.quarantined[name]; !ok {
		m.quarantined[name] = reason
	}
	m.quarMu.Unlock()
}

// QuarantinePanic records a kernel panic implicating the given operands.
// Quarantine is surgical: the offending combination is blocked (later
// submissions multiplying these matrices together fail fast), but each
// member stays usable with other co-operands — a single panic implicates
// the interaction, not yet any one matrix. A matrix implicated in panics
// across two different combinations is the common factor and escalates to
// individual quarantine.
func (m *Manager) QuarantinePanic(names []string, reason string) {
	key := comboKey(names)
	m.quarMu.Lock()
	defer m.quarMu.Unlock()
	if _, ok := m.quarCombos[key]; !ok {
		m.quarCombos[key] = comboQuarantine{names: append([]string(nil), names...), reason: reason}
	}
	for _, n := range names {
		set := m.implicated[n]
		if set == nil {
			set = make(map[string]struct{})
			m.implicated[n] = set
		}
		set[key] = struct{}{}
		if len(set) >= 2 {
			if _, ok := m.quarantined[n]; !ok {
				m.quarantined[n] = fmt.Sprintf("implicated in %d panicking multiplications; last: %s", len(set), reason)
			}
		}
	}
}

// Unquarantine lifts a matrix's quarantine (the delete/re-load path): the
// name itself, every quarantined combination it belongs to, and its panic
// implication history are dropped — the matrix's data is gone or fresh, so
// its past offenses no longer say anything. Reports whether any quarantine
// entry was lifted.
func (m *Manager) Unquarantine(name string) bool {
	m.quarMu.Lock()
	defer m.quarMu.Unlock()
	_, hit := m.quarantined[name]
	delete(m.quarantined, name)
	for key, c := range m.quarCombos {
		member := false
		for _, n := range c.names {
			if n == name {
				member = true
				break
			}
		}
		if !member {
			continue
		}
		delete(m.quarCombos, key)
		hit = true
		// Forgive the combination for its other members too, so a stale
		// offense cannot count toward their escalation later.
		for _, n := range c.names {
			if set := m.implicated[n]; set != nil {
				delete(set, key)
				if len(set) == 0 {
					delete(m.implicated, n)
				}
			}
		}
	}
	delete(m.implicated, name)
	return hit
}

// Quarantined snapshots the quarantine entries in force — individually
// quarantined matrices and quarantined operand combinations (keyed
// "a × b") — with their reasons.
func (m *Manager) Quarantined() map[string]string {
	m.quarMu.Lock()
	defer m.quarMu.Unlock()
	out := make(map[string]string, len(m.quarantined)+len(m.quarCombos))
	for k, v := range m.quarantined {
		out[k] = v
	}
	for k, c := range m.quarCombos {
		if _, ok := out[k]; !ok {
			out[k] = c.reason
		}
	}
	return out
}

// quarantinedOperand returns the first quarantine entry blocking the given
// operand set: an individually quarantined name, or a quarantined
// combination all of whose members appear among the operands (a chain
// containing a poisoned pair is blocked too).
func (m *Manager) quarantinedOperand(names []string) (name, reason string, ok bool) {
	m.quarMu.Lock()
	defer m.quarMu.Unlock()
	for _, n := range names {
		if r, hit := m.quarantined[n]; hit {
			return n, r, true
		}
	}
	if len(m.quarCombos) == 0 {
		return "", "", false
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
combos:
	for key, c := range m.quarCombos {
		for _, member := range c.names {
			if !have[member] {
				continue combos
			}
		}
		return key, c.reason, true
	}
	return "", "", false
}

func (m *Manager) execute(job *Job) (*Result, error) {
	// A job that spent its whole deadline queued aborts here, before
	// acquiring anything.
	if err := job.ctx.Err(); err != nil {
		return nil, err
	}
	// Chaos hook: lets the fault suite drive the retry loop (transient
	// errors) and the permanent-failure path without touching the kernels.
	if err := faultinject.Do("service.execute"); err != nil {
		return nil, fmt.Errorf("service: executing job: %w", err)
	}
	handles := make([]*catalog.Handle, 0, len(job.names))
	defer func() {
		for _, h := range handles {
			h.Release()
		}
	}()
	operands := make([]*core.ATMatrix, 0, len(job.names))
	for _, name := range job.names {
		h, err := m.cat.Acquire(name)
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
		operands = append(operands, h.Matrix())
	}

	opts := core.DefaultMultOptions()
	opts.Ctx = job.ctx
	opts.Watchdog = m.opts.Watchdog
	t0 := time.Now()
	if job.ast != nil {
		return m.executeEval(job, operands, opts, t0)
	}
	// Read once the job holds its operands, any reload admitted.
	room := m.poolRoom()
	opts.Verify = m.opts.Verify
	mult := m.opts.Distribute
	if mult == nil {
		mult = func(_, _ string, a, b *core.ATMatrix, o core.MultOptions) (*core.ATMatrix, *core.MultStats, error) {
			return core.MultiplyOpt(a, b, m.cfg, o)
		}
	}
	out, mst, err := mult(job.names[0], job.names[1], operands[0], operands[1], opts)
	if err != nil {
		return nil, err
	}
	m.m.aggregate([]*core.MultStats{mst})
	return m.finish(job, out, &Result{}, t0, room)
}

// executeEval runs an expression or chain job through the expression
// engine: plan (association order and fusion strategy chosen by the
// density DP), execute with tile-reuse fusion, then check the final
// product against the raw operands with expression-level Freivalds probes
// — the verification never trusts any intermediate the executor produced.
func (m *Manager) executeEval(job *Job, operands []*core.ATMatrix, opts core.MultOptions, t0 time.Time) (*Result, error) {
	bind := make(map[string]*core.ATMatrix, len(job.vars))
	for i, v := range job.vars {
		bind[v] = operands[i]
	}
	eopts := expr.Options{Iterations: job.req.Iterations, Mult: opts}
	plan, err := expr.PlanExpr(job.ast, bind, m.cfg, eopts)
	if err != nil {
		if errors.Is(err, expr.ErrInvalid) {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		return nil, err
	}
	m.m.planTimeNS.Add(plan.PlanTime.Nanoseconds())
	out, est, err := plan.Execute()
	if err != nil {
		return nil, err
	}
	m.m.evalJobs.Add(1)
	m.m.fusedStages.Add(int64(est.FusedStages))
	if m.opts.Verify > 0 {
		v0 := time.Now()
		sweeps := core.TeamSweeper(job.ctx, m.cfg, m.opts.Watchdog)
		if err := expr.VerifyOn(sweeps, plan.Expr, bind, out, m.opts.Verify, rand.Int63()); err != nil {
			return nil, err
		}
		// Counted with the products' Freivalds time: it is the same check.
		m.m.aggregate([]*core.MultStats{{VerifyTime: time.Since(v0)}})
	}
	summary := plan.Summary()
	res := &Result{
		ChainExpr:             summary.Order,
		Plan:                  &summary,
		Steps:                 est.Steps,
		FusedStages:           est.FusedStages,
		PlanTime:              plan.PlanTime,
		PeakIntermediateBytes: est.PeakIntermediateBytes,
	}
	return m.finish(job, out, res, t0, -1)
}

// finish fills the shape fields of the result, stores the product in the
// catalog when the request asked for it, hands the product to the dense
// result pool when it fits in room bytes (poolRoom; an eval passes -1), and
// stamps Wall — last, so that it covers everything the job did since t0
// (verification, repartitioning and the catalog write included), which is
// what the latency quantiles record.
func (m *Manager) finish(job *Job, out *core.ATMatrix, res *Result, t0 time.Time, room int64) (*Result, error) {
	res.Rows, res.Cols = out.Rows, out.Cols
	res.NNZ, res.Bytes = out.NNZ(), out.Bytes()
	res.TilesSparse, res.TilesDense = out.TileCount()
	if job.req.Store == "" {
		if res.Bytes <= room {
			recycleProduct(out)
		}
	} else {
		// Stored results become first-class operands of later jobs, so
		// rebuild the band-grid result into an adaptive layout. The copy
		// is admitted after the product is recycled, so it is counted at
		// the product's size. A product that is not recycled must not be
		// referenced after the Repartition call: that drops it once its
		// rows are staged, and keeping it would keep its bytes resident
		// through the layout build and the catalog write.
		var re *core.ATMatrix
		var err error
		if 2*res.Bytes <= room {
			if re, _, err = out.Repartition(m.cfg); err == nil {
				recycleProduct(out)
			}
		} else {
			re, _, err = out.Repartition(m.cfg)
		}
		if err != nil {
			return nil, err
		}
		if err := m.cat.Put(job.req.Store, re, job.req.Pin); err != nil {
			return nil, err
		}
		res.Stored = job.req.Store
		res.Bytes = re.Bytes()
		res.TilesSparse, res.TilesDense = re.TileCount()
	}
	res.Wall = time.Since(t0)
	return res, nil
}

// poolRoom returns how many bytes of a multiply's product the dense result
// pool (core.Recycle) may take once finish has read it: on a budgeted
// catalog the budget's headroom — the pool is resident memory the budget
// does not see — and otherwise all of it. Eval results are not recycled.
func (m *Manager) poolRoom() int64 {
	cs := m.cat.Stats()
	if cs.BudgetBytes == 0 {
		return math.MaxInt64
	}
	return cs.BudgetBytes - cs.ResidentBytes
}

// recycleProduct is core.Recycle; a test wraps it to see what is recycled,
// and when.
var recycleProduct = core.Recycle

// observeLatency records one completed-job latency in the ring buffer.
func (mm *metrics) observeLatency(d time.Duration) {
	mm.statMu.Lock()
	defer mm.statMu.Unlock()
	if len(mm.latencies) < latencyWindow {
		mm.latencies = append(mm.latencies, d)
		return
	}
	mm.latencies[mm.latencyNext] = d
	mm.latencyNext = (mm.latencyNext + 1) % latencyWindow
}

// aggregate folds per-step MultStats into the running totals.
func (mm *metrics) aggregate(steps []*core.MultStats) {
	mm.statMu.Lock()
	defer mm.statMu.Unlock()
	for _, s := range steps {
		mm.mult.EstimateTime += s.EstimateTime
		mm.mult.OptimizeTime += s.OptimizeTime
		mm.mult.ConvertTime += s.ConvertTime
		mm.mult.MultiplyTime += s.MultiplyTime
		mm.mult.FinalizeTime += s.FinalizeTime
		mm.mult.VerifyTime += s.VerifyTime
		mm.mult.WallTime += s.WallTime
		mm.mult.Conversions += s.Conversions
		mm.mult.Contributions += s.Contributions
		mm.mult.TargetTiles += s.TargetTiles
		mm.mult.TasksStolen += s.TasksStolen
	}
}

// Metrics is a consistent snapshot of the manager's counters.
type Metrics struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	InFlight  int64 `json:"in_flight"`
	Queued    int64 `json:"queued"`
	QueueCap  int64 `json:"queue_capacity"`

	// Retries counts transient-failure re-executions; Quarantined the
	// quarantine entries currently in force (individually quarantined
	// matrices plus panic-implicated operand combinations). TaskPanics and
	// WatchdogTimeouts are
	// the process-wide scheduler fault counters (they include panics and
	// timeouts from outside this manager, e.g. direct core callers).
	Retries          int64 `json:"retries"`
	VerifyFailed     int64 `json:"verify_failed"`
	Quarantined      int64 `json:"quarantined"`
	TaskPanics       int64 `json:"task_panics"`
	WatchdogTimeouts int64 `json:"watchdog_timeouts"`

	// Expression-engine counters: jobs executed through the planner,
	// fused stage applications, cumulative planning time.
	EvalJobs    int64         `json:"eval_jobs"`
	FusedStages int64         `json:"fused_stages"`
	PlanTime    time.Duration `json:"plan_time_ns"`

	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`

	Mult core.MultStats `json:"mult"`
}

// Metrics snapshots the counters. The monotonic counters are read before
// the gauges, so accepted ≥ completed+failed+canceled+queued+inflight can
// transiently miss a job in handoff but never double-counts one.
func (m *Manager) Metrics() Metrics {
	out := Metrics{
		Completed:    m.m.completed.Load(),
		Failed:       m.m.failed.Load(),
		Canceled:     m.m.canceled.Load(),
		Rejected:     m.m.rejected.Load(),
		Accepted:     m.m.accepted.Load(),
		InFlight:     m.m.inflight.Load(),
		Queued:       int64(len(m.queue)),
		QueueCap:     int64(cap(m.queue)),
		Retries:      m.m.retries.Load(),
		VerifyFailed: m.m.verifyFailed.Load(),
		EvalJobs:     m.m.evalJobs.Load(),
		FusedStages:  m.m.fusedStages.Load(),
		PlanTime:     time.Duration(m.m.planTimeNS.Load()),
	}
	out.TaskPanics, out.WatchdogTimeouts = sched.Counters()
	m.quarMu.Lock()
	out.Quarantined = int64(len(m.quarantined) + len(m.quarCombos))
	m.quarMu.Unlock()
	m.m.statMu.Lock()
	out.Mult = m.m.mult
	if n := len(m.m.latencies); n > 0 {
		sorted := make([]time.Duration, n)
		copy(sorted, m.m.latencies)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out.LatencyP50 = sorted[n/2]
		out.LatencyP99 = sorted[(n*99)/100]
	}
	m.m.statMu.Unlock()
	return out
}

// Close stops admission, drains queued and in-flight jobs, and returns
// once the workers exited. Jobs still running when the drain timeout
// expires are cancelled through their context (aborting between tile-task
// batches) and accounted as canceled. A second Close is a no-op.
func (m *Manager) Close(drainTimeout time.Duration) error {
	m.admitMu.Lock()
	if m.closed {
		m.admitMu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	var timedOut bool
	if drainTimeout > 0 {
		select {
		case <-done:
		case <-time.After(drainTimeout):
			timedOut = true
			m.rootStop() // cancel everything still running or queued
			<-done
		}
	} else {
		<-done
	}
	m.rootStop()
	if timedOut {
		return fmt.Errorf("service: drain timeout after %v; in-flight jobs cancelled", drainTimeout)
	}
	return nil
}
