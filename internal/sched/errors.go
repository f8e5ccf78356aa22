package sched

import (
	"fmt"
	"sync/atomic"
	"time"

	"atmatrix/internal/numa"
)

// TaskPanicError reports a panic inside a task body. The scheduler recovers
// the panic on the executing worker, so only the run that owned the task
// fails — the workers and every other in-flight run keep going. Item
// carries the task's item id (for ATMULT, the tile-pair index the caller
// maps back to tile coordinates).
type TaskPanicError struct {
	// Socket is the socket of the worker that executed the panicking task.
	Socket numa.Node
	// Item is the item id of the panicking task.
	Item int32
	// Value is the recovered panic value.
	Value any
	// Stack is the stack of the panicking goroutine, captured at recovery.
	Stack []byte
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("sched: task panic on socket %d (item %d): %v", e.Socket, e.Item, e.Value)
}

// WatchdogError reports that a task overran the run's per-task watchdog
// deadline: the run abandoned the worker (marking it degraded) instead of
// blocking forever. The failure is transient — the worker recovers as soon
// as its stuck task returns, and retries land on the remaining healthy
// workers.
type WatchdogError struct {
	// Socket is the socket of the worker abandoned by the watchdog.
	Socket numa.Node
	// Elapsed is how long the stuck task had been running when the
	// watchdog fired.
	Elapsed time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sched: watchdog: task on socket %d stuck for %v; worker marked degraded", e.Socket, e.Elapsed)
}

// Transient marks watchdog failures as retryable for the service layer's
// failure classifier.
func (e *WatchdogError) Transient() bool { return true }

// errNoHealthyTeams is returned when every worker of the runtime is marked
// degraded; it is transient because workers self-heal when their stuck
// tasks return.
type errNoHealthyTeams struct{}

func (errNoHealthyTeams) Error() string   { return "sched: no healthy workers (all degraded)" }
func (errNoHealthyTeams) Transient() bool { return true }

// ErrNoHealthyTeams reports that a run could not start because every worker
// is degraded.
var ErrNoHealthyTeams error = errNoHealthyTeams{}

// taskPanics and watchdogTimeouts are process-wide counters of recovered
// task panics and watchdog firings, exposed for metrics endpoints.
var taskPanics, watchdogTimeouts atomic.Int64

// Counters returns the process-wide fault counters: recovered task panics
// and watchdog timeouts since process start.
func Counters() (panics, watchdogs int64) {
	return taskPanics.Load(), watchdogTimeouts.Load()
}
