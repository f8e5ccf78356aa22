package sched

import (
	"errors"
	"testing"
	"time"

	"atmatrix/internal/faultinject"
	"atmatrix/internal/leakcheck"
)

// faultRuntime starts a leak-checked runtime on a topology private to the
// calling test and tears it down (before the leak assertion, cleanups being
// LIFO) when the test ends.
func faultRuntime(t *testing.T, sockets, cores int) *Runtime {
	t.Helper()
	leakcheck.Check(t)
	rt := RuntimeFor(topo(sockets, cores))
	t.Cleanup(rt.Close)
	return rt
}

// transient mirrors the service layer's failure classifier marker.
type transient interface{ Transient() bool }

func TestTaskPanicBecomesTypedError(t *testing.T) {
	rt := faultRuntime(t, 2, 4)
	panicsBefore, _ := Counters()
	ran := 0
	queues := [][]func(*Team){
		{func(team *Team) { ran++ }},
		{func(team *Team) { panic("boom") }},
	}
	_, err := runTasks(rt, queues)
	var tpe *TaskPanicError
	if !errors.As(err, &tpe) {
		t.Fatalf("Run error = %v, want *TaskPanicError", err)
	}
	if tpe.Item != 1 {
		t.Errorf("panic Item = %d, want 1 (the panicking task's id)", tpe.Item)
	}
	if tpe.Value != "boom" {
		t.Errorf("panic Value = %v, want \"boom\"", tpe.Value)
	}
	if len(tpe.Stack) == 0 {
		t.Error("panic Stack is empty")
	}
	if panicsAfter, _ := Counters(); panicsAfter <= panicsBefore {
		t.Errorf("task panic counter did not advance: %d -> %d", panicsBefore, panicsAfter)
	}
	// The runtime survives: a healthy run on the same teams succeeds.
	total := make([]int, 2)
	healthy := [][]func(*Team){
		{func(team *Team) { total[0]++ }},
		{func(team *Team) { total[1]++ }},
	}
	if _, err := runTasks(rt, healthy); err != nil {
		t.Fatalf("healthy run after panic failed: %v", err)
	}
	if total[0] != 1 || total[1] != 1 {
		t.Errorf("healthy run executed %v, want [1 1]", total)
	}
}

func TestIndexedTaskPanicCarriesItem(t *testing.T) {
	rt := faultRuntime(t, 2, 2)
	queues := [][]int32{{0, 1, 2}, {3, 4, 5}}
	_, err := rt.RunIndexedCtx(nil, queues, func(team *Team, item int32) {
		if item == 4 {
			panic("poisoned tile")
		}
	}, RunOpts{})
	var tpe *TaskPanicError
	if !errors.As(err, &tpe) {
		t.Fatalf("RunIndexed error = %v, want *TaskPanicError", err)
	}
	if tpe.Item != 4 {
		t.Errorf("Item = %d, want 4", tpe.Item)
	}
}

func TestFanoutHelperPanicIsolated(t *testing.T) {
	rt := faultRuntime(t, 1, 4)
	for _, worker := range []int{0, 2} { // leader chunk and a helper chunk
		_, err := runTasks(rt, [][]func(*Team){{func(team *Team) {
			team.ParallelRows(64, func(lo, hi, w int) {
				if w == worker {
					panic("chunk down")
				}
			})
		}}})
		var tpe *TaskPanicError
		if !errors.As(err, &tpe) {
			t.Fatalf("worker %d: error = %v, want *TaskPanicError", worker, err)
		}
		if tpe.Value != "chunk down" {
			t.Errorf("worker %d: Value = %v, want \"chunk down\"", worker, tpe.Value)
		}
		// The team's reusable barrier must have survived: a full fan-out
		// over the same helpers still covers every row exactly once.
		seen := make([]int32, 256)
		if _, err := runTasks(rt, [][]func(*Team){{func(team *Team) {
			team.ParallelRows(len(seen), func(lo, hi, w int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
		}}}); err != nil {
			t.Fatalf("worker %d: fan-out after panic failed: %v", worker, err)
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("worker %d: row %d ran %d times, want 1", worker, i, n)
			}
		}
	}
}

func TestWatchdogDegradesTeamAndSelfHeals(t *testing.T) {
	rt := faultRuntime(t, 2, 2)
	wd := RunOpts{Watchdog: 30 * time.Millisecond}
	release := make(chan struct{})
	started := make(chan struct{})
	blocked := [][]func(*Team){
		{func(team *Team) { close(started); <-release }},
		// Keeps team 1 busy until team 0 holds the blocking task: a dry
		// team would otherwise be free to take it.
		{func(team *Team) { <-started }},
	}
	_, err := runTasksOpts(rt, wd, blocked)
	var wde *WatchdogError
	if !errors.As(err, &wde) {
		t.Fatalf("Run error = %v, want *WatchdogError", err)
	}
	if wde.Socket != 0 {
		t.Errorf("WatchdogError.Socket = %d, want 0", wde.Socket)
	}
	var tr transient
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Error("WatchdogError must classify as transient")
	}
	if ds := rt.DegradedSockets(); len(ds) != 1 || ds[0] != 0 {
		t.Fatalf("DegradedSockets = %v, want [0]", ds)
	}
	// While team 0 is stuck, new runs route its queue onto healthy teams
	// and succeed.
	ran := 0
	if _, err := runTasksOpts(rt, wd, [][]func(*Team){
		{func(team *Team) { ran++ }},
		{func(team *Team) { ran++ }},
	}); err != nil {
		t.Fatalf("run during degradation failed: %v", err)
	}
	if ran != 2 {
		t.Errorf("degraded-mode run executed %d tasks, want 2", ran)
	}
	// Unstick the task; the leader finishes and self-heals the team.
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for len(rt.DegradedSockets()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("team did not self-heal; DegradedSockets = %v", rt.DegradedSockets())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := runTasksOpts(rt, wd, [][]func(*Team){{func(team *Team) {}}, {func(team *Team) {}}}); err != nil {
		t.Fatalf("run after self-heal failed: %v", err)
	}
}

// TestWatchdogDegradedTeamHealsWithoutRedelivery guards the self-heal path
// when the degrading run was never delivered to the stuck leader: its
// dispatch handoff is abandoned once the watchdog retires the team, so
// healing must not depend on the leader ever seeing that request — the
// leader finishing any request is the proof of life.
func TestWatchdogDegradedTeamHealsWithoutRedelivery(t *testing.T) {
	rt := faultRuntime(t, 2, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	blockedErr := make(chan error, 1)
	// Run 1 wedges socket 0's leader.
	go func() {
		_, err := runTasks(rt, [][]func(*Team){
			{func(team *Team) { close(started); <-release }},
			{func(team *Team) { <-started }}, // team 1 must not take team 0's task
		})
		blockedErr <- err
	}()
	<-started
	// Run 2 parks in the leader's size-1 channel buffer so run 3's handoff
	// must go through the abandonable async path.
	queuedErr := make(chan error, 1)
	go func() {
		_, err := runTasks(rt, [][]func(*Team){{func(team *Team) {}}, {}})
		queuedErr <- err
	}()
	time.Sleep(20 * time.Millisecond)

	wd := RunOpts{Watchdog: 30 * time.Millisecond}
	_, err := runTasksOpts(rt, wd, [][]func(*Team){{func(team *Team) {}}, {func(team *Team) {}}})
	var wde *WatchdogError
	if !errors.As(err, &wde) {
		t.Fatalf("watchdogged run error = %v, want *WatchdogError", err)
	}
	if ds := rt.DegradedSockets(); len(ds) != 1 || ds[0] != 0 {
		t.Fatalf("DegradedSockets = %v, want [0]", ds)
	}
	// Unwedge the leader. It finishes runs 1 and 2 — neither of which is
	// the run that degraded it — and must still self-heal.
	close(release)
	if err := <-blockedErr; err != nil {
		t.Fatalf("blocked run failed: %v", err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued run failed: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(rt.DegradedSockets()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("team never healed; DegradedSockets = %v (degrading request was never redelivered)", rt.DegradedSockets())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := runTasksOpts(rt, wd, [][]func(*Team){{func(team *Team) {}}, {func(team *Team) {}}}); err != nil {
		t.Fatalf("run after heal failed: %v", err)
	}
}

// TestWatchdogIgnoresEarlierRunsTask guards against misattribution: a run's
// watchdog measures stuck time from the later of the task's start and the
// run's own dispatch, so a legitimate long task belonging to an earlier run
// must not degrade a healthy team out from under a freshly dispatched run.
func TestWatchdogIgnoresEarlierRunsTask(t *testing.T) {
	rt := faultRuntime(t, 2, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	earlier := make(chan error, 1)
	go func() {
		_, err := runTasks(rt, [][]func(*Team){
			{func(team *Team) { close(started); <-release }},
			{func(team *Team) { <-started }}, // team 1 must not take team 0's task
		})
		earlier <- err
	}()
	<-started
	// Let the earlier run's task predate the watchdogged run by more than
	// the whole deadline, so degrading on raw task age would fire on the
	// watchdog's very first poll.
	time.Sleep(450 * time.Millisecond)

	wd := RunOpts{Watchdog: 400 * time.Millisecond}
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = runTasksOpts(rt, wd, [][]func(*Team){{func(team *Team) {}}, {func(team *Team) {}}})
	}()
	// Free the leader well past the watchdog's first polls but well before
	// a full deadline has elapsed since the run's dispatch.
	time.Sleep(200 * time.Millisecond)
	close(release)
	<-done
	if runErr != nil {
		t.Fatalf("run queued behind an earlier long task failed: %v (watchdog misattribution)", runErr)
	}
	if err := <-earlier; err != nil {
		t.Fatalf("earlier run failed: %v", err)
	}
	if ds := rt.DegradedSockets(); len(ds) != 0 {
		t.Errorf("DegradedSockets = %v, want none", ds)
	}
}

func TestAllTeamsDegradedIsTransientError(t *testing.T) {
	rt := faultRuntime(t, 1, 3)
	wd := RunOpts{Watchdog: 20 * time.Millisecond}
	release := make(chan struct{})
	if _, err := runTasksOpts(rt, wd, [][]func(*Team){{func(team *Team) { <-release }}}); err == nil {
		t.Fatal("expected watchdog failure")
	}
	_, err := runTasksOpts(rt, wd, [][]func(*Team){{func(team *Team) {}}})
	if !errors.Is(err, ErrNoHealthyTeams) {
		t.Fatalf("run with all teams degraded: error = %v, want ErrNoHealthyTeams", err)
	}
	var tr transient
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Error("ErrNoHealthyTeams must classify as transient")
	}
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for len(rt.DegradedSockets()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("team did not self-heal")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := runTasksOpts(rt, wd, [][]func(*Team){{func(team *Team) {}}}); err != nil {
		t.Fatalf("run after heal failed: %v", err)
	}
}

func TestInjectedPanicAtNthTask(t *testing.T) {
	rt := faultRuntime(t, 2, 2)
	defer faultinject.Enable(1, faultinject.Rule{
		Site: "sched.task", Kind: faultinject.KindPanic, After: 4,
	})()
	items := [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}}
	_, err := rt.RunIndexedCtx(nil, items, func(team *Team, item int32) {}, RunOpts{})
	var tpe *TaskPanicError
	if !errors.As(err, &tpe) {
		t.Fatalf("error = %v, want *TaskPanicError", err)
	}
	if ip, ok := tpe.Value.(*faultinject.InjectedPanic); !ok || ip.Site != "sched.task" {
		t.Errorf("panic Value = %v, want *InjectedPanic at sched.task", tpe.Value)
	}
	faultinject.Disable()
	if _, err := rt.RunIndexedCtx(nil, items, func(team *Team, item int32) {}, RunOpts{}); err != nil {
		t.Fatalf("run after disarming faults failed: %v", err)
	}
}

func TestRuntimeCloseReleasesWorkers(t *testing.T) {
	leakcheck.Check(t)
	tp := topo(3, 3)
	rt := RuntimeFor(tp)
	if _, err := runTasks(rt, [][]func(*Team){
		{func(team *Team) { team.ParallelRows(32, func(lo, hi, w int) {}) }},
		{func(team *Team) {}},
		{func(team *Team) {}},
	}); err != nil {
		t.Fatalf("warm-up run failed: %v", err)
	}
	rt.Close()
	rt.Close() // idempotent
	// A fresh runtime for the same topology starts cleanly afterwards.
	rt2 := RuntimeFor(tp)
	if rt2 == rt {
		t.Fatal("RuntimeFor returned the closed runtime")
	}
	if _, err := runTasks(rt2, [][]func(*Team){{func(team *Team) {}}}); err != nil {
		t.Fatalf("run on fresh runtime failed: %v", err)
	}
	rt2.Close()
}
