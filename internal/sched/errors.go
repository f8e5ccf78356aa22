package sched

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"atmatrix/internal/numa"
)

// TaskPanicError reports a panic inside a task body. The scheduler recovers
// the panic on the executing worker, so only the run that owned the task
// fails — the worker teams and every other in-flight run keep going. Item
// carries the task's item id (for ATMULT, the tile-pair index the caller
// maps back to tile coordinates).
type TaskPanicError struct {
	// Socket is the team that executed the panicking task.
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
// deadline: the run abandoned the team (marking it degraded) instead of
// blocking forever. The failure is transient — the team recovers as soon as
// its stuck task returns, and retries land on the remaining healthy teams.
type WatchdogError struct {
	// Socket is the team abandoned by the watchdog.
	Socket numa.Node
	// Elapsed is how long the stuck task had been running when the
	// watchdog fired.
	Elapsed time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sched: watchdog: task on socket %d stuck for %v; team marked degraded", e.Socket, e.Elapsed)
}

// Transient marks watchdog failures as retryable for the service layer's
// failure classifier.
func (e *WatchdogError) Transient() bool { return true }

// errNoHealthyTeams is returned when every team of the runtime is marked
// degraded; it is transient because teams self-heal when their stuck tasks
// return.
type errNoHealthyTeams struct{}

func (errNoHealthyTeams) Error() string   { return "sched: no healthy worker teams (all degraded)" }
func (errNoHealthyTeams) Transient() bool { return true }

// ErrNoHealthyTeams reports that a run could not start because every worker
// team is degraded.
var ErrNoHealthyTeams error = errNoHealthyTeams{}

// fanoutPanic carries a panic from a ParallelRows chunk back to the task
// that fanned out, preserving the originating goroutine's stack.
type fanoutPanic struct {
	value any
	stack []byte
}

// runChunk executes one ParallelRows chunk, converting a panic into a
// *fanoutPanic instead of unwinding the worker goroutine.
func runChunk(f func(lo, hi, worker int), lo, hi, worker int) (fp *fanoutPanic) {
	defer func() {
		if p := recover(); p != nil {
			if prior, ok := p.(*fanoutPanic); ok {
				fp = prior
				return
			}
			fp = &fanoutPanic{value: p, stack: debug.Stack()}
		}
	}()
	f(lo, hi, worker)
	return nil
}

// taskPanics and watchdogTimeouts are process-wide counters of recovered
// task panics and watchdog firings, exposed for metrics endpoints.
var taskPanics, watchdogTimeouts atomic.Int64

// Counters returns the process-wide fault counters: recovered task panics
// and watchdog timeouts since process start.
func Counters() (panics, watchdogs int64) {
	return taskPanics.Load(), watchdogTimeouts.Load()
}
