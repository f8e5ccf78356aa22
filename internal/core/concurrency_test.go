package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"atmatrix/internal/mat"
)

// TestConcurrentConvCacheSingleConversion is the regression test for the
// conversion cache's sharded sync.Once design: however many teams request
// the dense form of the same tile concurrently, exactly one conversion may
// run, and every caller must observe the same converted array.
func TestConcurrentConvCacheSingleConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := mat.RandomCOO(rng, 64, 64, 600).ToCSR()
	tile := &Tile{Rows: 64, Cols: 64, Kind: mat.Sparse, Sp: sp, NNZ: sp.NNZ()}

	const goroutines = 32
	cache := newConvCache()
	var conversions atomic.Int64
	results := make([]*mat.Dense, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait() // line everyone up on the same tile
			d, hit := cache.dense(tile)
			if !hit {
				conversions.Add(1)
			}
			results[g] = d
		}(g)
	}
	start.Done()
	done.Wait()

	if n := conversions.Load(); n != 1 {
		t.Fatalf("%d conversions ran for one tile, want exactly 1", n)
	}
	for g, d := range results {
		if d != results[0] {
			t.Fatalf("goroutine %d received a different dense copy", g)
		}
	}
	if !results[0].EqualApprox(sp.ToDense(), tol) {
		t.Fatal("cached conversion does not match the tile content")
	}
}

// TestConcurrentConvCacheManyTiles stresses the entry map itself: distinct
// tiles converted concurrently must each convert exactly once.
func TestConcurrentConvCacheManyTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const tiles = 16
	ts := make([]*Tile, tiles)
	for i := range ts {
		sp := mat.RandomCOO(rng, 32, 32, 100).ToCSR()
		ts[i] = &Tile{Rows: 32, Cols: 32, Kind: mat.Sparse, Sp: sp, NNZ: sp.NNZ()}
	}
	cache := newConvCache()
	var conversions atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tile := range ts {
				if _, hit := cache.dense(tile); !hit {
					conversions.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := conversions.Load(); n != tiles {
		t.Fatalf("%d conversions for %d tiles, want one each", n, tiles)
	}
}

// TestConcurrentMultiplySharedOperands runs two full Multiply invocations
// concurrently over the *same* operand matrices — the pattern of an
// analytics server executing independent queries against shared data. Both
// results must match the reference product. Run with -race, this covers
// the persistent runtime's task serialization, the per-worker scratch
// handoffs, and the conversion cache (each invocation owns its own cache,
// but the operand tiles and the runtime workers are shared).
func TestConcurrentMultiplySharedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig()
	n := 96
	a := mat.RandomCOO(rng, n, n, n*n/4)
	b := mat.RandomCOO(rng, n, n, n*n/5)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm, _, err := Partition(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(a.ToDense(), b.ToDense())

	const callers = 2
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cm, _, err := Multiply(am, bm, cfg)
				if err != nil {
					errs <- err
					return
				}
				if err := cm.Validate(); err != nil {
					errs <- err
					return
				}
				if !cm.ToDense().EqualApprox(want, tol) {
					t.Error("concurrent multiply diverged from reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentMultiplyMixedConfigs runs concurrent multiplications with
// different topologies and scratch modes against shared operands, exercising
// several persistent runtimes at once.
func TestConcurrentMultiplyMixedConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := testConfig()
	n := 80
	a := mat.RandomCOO(rng, n, n, n*n/3)
	am, _, err := Partition(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MulReference(a.ToDense(), a.ToDense())

	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	cfgs[1].Topology.Sockets = 1
	cfgs[1].Topology.CoresPerSocket = 4
	cfgs[2].EphemeralWorkers = true

	var wg sync.WaitGroup
	for _, c := range cfgs {
		wg.Add(1)
		go func(c Config) {
			defer wg.Done()
			cm, _, err := Multiply(am, am, c)
			if err != nil {
				t.Error(err)
				return
			}
			if !cm.ToDense().EqualApprox(want, tol) {
				t.Error("mixed-config concurrent multiply diverged from reference")
			}
		}(c)
	}
	wg.Wait()
}
