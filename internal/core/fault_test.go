package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"atmatrix/internal/faultinject"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// TestMultiplyPanicReportsTargetTile checks the kernel panic domain end to
// end: an injected panic inside an ATMULT task surfaces as a typed
// *TaskPanicError wrapped with the target tile's coordinates, the process
// survives, and the very next multiplication on the same persistent teams
// computes the correct product.
func TestMultiplyPanicReportsTargetTile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := testConfig()
	src, err := genHeterogeneous(rng, 150)
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := Partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, stats, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Contributions == 0 {
		t.Fatal("test matrix produced no tile-multiplication tasks")
	}

	reset := faultinject.Enable(1, faultinject.Rule{
		Site: "sched.task", Kind: faultinject.KindPanic,
	})
	_, _, err = Multiply(am, am, cfg)
	reset()
	var tpe *sched.TaskPanicError
	if !errors.As(err, &tpe) {
		t.Fatalf("Multiply error = %v, want wrapped *TaskPanicError", err)
	}
	if tpe.Item < 0 {
		t.Errorf("panic Item = %d, want a tile-pair index", tpe.Item)
	}
	if !strings.Contains(err.Error(), "target tile") {
		t.Errorf("error %q does not name the target tile", err)
	}

	got, _, err := Multiply(am, am, cfg)
	if err != nil {
		t.Fatalf("multiply after recovered panic failed: %v", err)
	}
	if !got.ToDense().EqualApprox(want.ToDense(), 0) {
		t.Fatal("multiply after recovered panic computed a different product")
	}
	t.Run("split pair", panicInSplitPair)
	t.Run("split sparse pair", panicInSplitSparsePair)
}

// panicInSplitSparsePair: a one-pair product with a sparse target on four
// teams runs its row pass as row chunks on one accumulator. Whichever of
// the product's tasks panics — the k-th to start, for every k up to the
// number a clean run starts — the error names the pair (Item 0) and its
// target tile, and the next multiplication is bit-identical to a clean
// one: no accumulator the failed run left half written is handed to it.
func panicInSplitSparsePair(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = numa.Topology{Sockets: 4, CoresPerSocket: 1}
	a := onePairSparseTarget(t, cfg, rand.New(rand.NewSource(67)), 4)
	serialized := func() []byte {
		t.Helper()
		c, _, err := Multiply(a, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Tiles) != 1 || c.Tiles[0].Kind != mat.Sparse {
			t.Fatalf("product has %d tiles, want one sparse tile: the test inspects no sparse pair", len(c.Tiles))
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// A clean run counts the tasks it starts.
	reset := faultinject.Enable(1, faultinject.Rule{Site: "sched.task", Kind: faultinject.KindDelay, Delay: time.Nanosecond, Count: -1})
	want := serialized()
	tasks := faultinject.Fired("sched.task")
	reset()
	for k := int64(1); k <= tasks; k++ {
		reset := faultinject.Enable(1, faultinject.Rule{Site: "sched.task", Kind: faultinject.KindPanic, After: k})
		_, _, err := Multiply(a, a, cfg)
		reset()
		var tpe *sched.TaskPanicError
		if !errors.As(err, &tpe) {
			t.Fatalf("task %d panicking: Multiply error = %v, want wrapped *TaskPanicError", k, err)
		}
		if tpe.Item != 0 {
			t.Errorf("task %d panicking: Item = %d, want the pair's index 0", k, tpe.Item)
		}
		if !strings.Contains(err.Error(), "target tile (0,0)") {
			t.Errorf("task %d panicking: error %q does not name target tile (0,0)", k, err)
		}
		if !bytes.Equal(serialized(), want) {
			t.Fatalf("multiply after a panic in task %d serialized differently", k)
		}
	}
}

// panicInSplitPair: a one-pair product on four teams runs its pair as four
// row chunks. Whichever chunk panics — the k-th task to start, for every
// k — the error names the pair (Item 0) and its target tile, never the
// chunk, and the next multiplication is bit-identical to a clean one: no
// plan or countdown of the failed run is left for it to trip over.
func panicInSplitPair(t *testing.T) {
	cfg := testConfig()
	cfg.Topology = numa.Topology{Sockets: 4, CoresPerSocket: 1}
	a, b := onePairDenseTarget(t, cfg, rand.New(rand.NewSource(59)))
	serialized := func() []byte {
		t.Helper()
		c, _, err := Multiply(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := serialized()
	for k := int64(1); k <= int64(cfg.Topology.Sockets); k++ {
		reset := faultinject.Enable(1, faultinject.Rule{Site: "sched.task", Kind: faultinject.KindPanic, After: k})
		_, _, err := Multiply(a, b, cfg)
		reset()
		var tpe *sched.TaskPanicError
		if !errors.As(err, &tpe) {
			t.Fatalf("task %d panicking: Multiply error = %v, want wrapped *TaskPanicError", k, err)
		}
		if tpe.Item != 0 {
			t.Errorf("task %d panicking: Item = %d, want the pair's index 0", k, tpe.Item)
		}
		if !strings.Contains(err.Error(), "target tile (0,0)") {
			t.Errorf("task %d panicking: error %q does not name target tile (0,0)", k, err)
		}
		if !bytes.Equal(serialized(), want) {
			t.Fatalf("multiply after a panic in task %d serialized differently", k)
		}
	}
}
