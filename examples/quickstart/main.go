// Quickstart: build a heterogeneous sparse matrix, partition it into an
// adaptive tile matrix (AT MATRIX), inspect the layout, and multiply it
// with ATMULT — verifying the result against a naive reference.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

func main() {
	// A 512×512 matrix with a dense 96×96 cluster (e.g. a tightly
	// coupled subsystem) over a sparse background — the heterogeneous
	// topology AT MATRIX is designed for.
	rng := rand.New(rand.NewSource(42))
	n := 512
	a := mat.NewCOO(n, n)
	for r := 0; r < 96; r++ {
		for c := 0; c < 96; c++ {
			a.Append(r, c, rng.Float64())
		}
	}
	for i := 0; i < 4000; i++ {
		a.Append(rng.Intn(n), rng.Intn(n), rng.Float64())
	}
	a.Dedup()
	fmt.Printf("input: %d×%d, %d non-zeros (ρ = %.3f%%)\n", a.Rows, a.Cols, a.NNZ(), 100*a.Density())

	// Configure for this machine; shrink the atomic block so the small
	// example still shows an interesting tiling.
	cfg := core.DefaultConfig()
	cfg.BAtomic = 32

	// Partition: row-major staging → ZBlockCnts (the non-empty atomic
	// blocks, in Z-order) → recursive quadtree → tiles cut from the stage.
	am, pstats, err := core.Partition(a, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sp, d := am.TileCount()
	fmt.Printf("partitioned into %d tiles (%d sparse, %d dense) in %v\n",
		len(am.Tiles), sp, d, pstats.Total())
	fmt.Printf("memory: AT MATRIX %d bytes vs CSR %d bytes vs dense %d bytes\n",
		am.Bytes(), mat.SparseBytes(a.NNZ()), mat.DenseBytes(n, n))
	fmt.Printf("\ntile layout ('#' dense, shades sparse):\n%s\n", am.LayoutString())

	// Multiply: C = A·A with density estimation, water-level write
	// threshold, and dynamic kernel selection.
	c, stats, err := core.Multiply(am, am, cfg)
	if err != nil {
		log.Fatal(err)
	}
	csp, cd := c.TileCount()
	fmt.Printf("C = A·A: %d non-zeros in %d tiles (%d sparse, %d dense)\n", c.NNZ(), len(c.Tiles), csp, cd)
	fmt.Printf("ATMULT: wall %v — estimate %.2f%%, optimize+convert %.2f%%, %d conversions\n",
		stats.WallTime, 100*stats.EstimateShare(), 100*stats.OptimizeShare(), stats.Conversions)
	fmt.Printf("NUMA (simulated): %s\n", stats.Numa)

	// Verify against the naive triple loop.
	want := mat.MulReference(a.ToDense(), a.ToDense())
	if !c.ToDense().EqualApprox(want, 1e-9) {
		log.Fatal("ATMULT result does not match the reference!")
	}
	fmt.Println("verified: ATMULT matches the naive reference multiplication ✓")
}
