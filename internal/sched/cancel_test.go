package sched

import (
	"context"
	"sync/atomic"
	"testing"

	"atmatrix/internal/numa"
)

// TestCancelStopsDrain checks that a run whose context is cancelled from
// inside a task stops picking up further tasks: with a single worker and a
// queue of N tasks where task K cancels, exactly K tasks execute. (A
// second worker could have started task K+1 before task K cancels.)
func TestCancelStopsDrain(t *testing.T) {
	t.Run("persistent", func(t *testing.T) {
		rt := RuntimeFor(numa.Topology{Sockets: 1, CoresPerSocket: 1})
		const total, cancelAt = 64, 5
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var executed atomic.Int64
		items := make([]int32, total)
		for i := range items {
			items[i] = int32(i)
		}
		rt.RunIndexedCtx(ctx, [][]int32{items}, func(team *Team, item int32) {
			if executed.Add(1) == cancelAt {
				cancel()
			}
		}, RunOpts{})
		if n := executed.Load(); n != cancelAt {
			t.Fatalf("executed %d tasks, want exactly %d (cancel must stop the drain)", n, cancelAt)
		}
	})
}

// TestCancelStopsStealing checks that cancellation also halts the steal
// phase: a cancelled context set before the run starts executes nothing.
func TestCancelStopsStealing(t *testing.T) {
	rt := RuntimeFor(numa.Topology{Sockets: 2, CoresPerSocket: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	items := []int32{0, 1, 2, 3}
	rt.RunIndexedCtx(ctx, [][]int32{items, items}, func(team *Team, item int32) {
		executed.Add(1)
	}, RunOpts{})
	if n := executed.Load(); n != 0 {
		t.Fatalf("cancelled run executed %d tasks, want 0", n)
	}
}

// TestCancelledRuntimeStaysUsable checks that a cancelled run does not wedge
// the persistent teams: a subsequent uncancelled run completes normally.
func TestCancelledRuntimeStaysUsable(t *testing.T) {
	rt := RuntimeFor(numa.Topology{Sockets: 2, CoresPerSocket: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt.RunIndexedCtx(ctx, [][]int32{{0, 1}, {2, 3}}, func(team *Team, item int32) {}, RunOpts{})

	var executed atomic.Int64
	rt.RunIndexedCtx(nil, [][]int32{{0, 1}, {2, 3}}, func(team *Team, item int32) {
		executed.Add(1)
	}, RunOpts{})
	if n := executed.Load(); n != 4 {
		t.Fatalf("post-cancel run executed %d tasks, want 4", n)
	}
}
