// Package core implements the paper's primary contribution: the adaptive
// tile matrix (AT MATRIX, §II) — a heterogeneous storage layout in which a
// large matrix is recursively partitioned into variable-size tiles that
// are physically stored either as dense row-major arrays or as CSR,
// according to the local non-zero topology — and the ATMULT multiplication
// operator (§III), which processes such matrices as cost-optimized tile
// multiplications with result-density estimation, a memory-bounded write
// threshold (water-level method), just-in-time tile conversions, and
// two-level NUMA-aware parallelization.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"time"

	"atmatrix/internal/costmodel"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
	"atmatrix/internal/sched"
)

// Config carries the system-dependent tuning parameters of AT MATRIX and
// ATMULT. The zero value is not usable; start from DefaultConfig.
type Config struct {
	// LLCBytes is the last-level cache size the tile-size formulas
	// (Eqs. 1–2) are derived from.
	LLCBytes int64
	// BAtomic is the atomic (logical) block side length b_atomic = 2^k,
	// the granularity of the AT MATRIX (§II-B2).
	BAtomic int
	// RhoRead is ρ0^R, the read density threshold classifying tiles as
	// sparse or dense during partitioning (paper: 0.25 on its system).
	RhoRead float64
	// RhoWrite is ρ0^W, the write density threshold for result tiles.
	RhoWrite float64
	// MemLimit optionally caps the memory of a multiplication result in
	// bytes; 0 means unlimited. The water-level method (§III-E) lowers
	// the effective write threshold to honor it.
	MemLimit int64
	// Topology is the (simulated) NUMA topology used for tile placement
	// and worker teams.
	Topology numa.Topology
	// Cost holds the kernel cost-model constants.
	Cost costmodel.Params
	// RowGrain is the minimum number of target-tile rows handed to each
	// team worker during intra-tile parallelization; ranges shorter than
	// 2·RowGrain run inline on the leader. It guards against the
	// over-parallelization the paper notes for small, very sparse blocks.
	// Zero or one means no constraint; DefaultConfig uses DefaultRowGrain.
	RowGrain int
	// EphemeralWorkers gives every task and fan-out chunk a throwaway
	// scratch arena instead of its worker's persistent one; the tasks still
	// run on the same persistent teams, under the same watchdog and panic
	// boundary. It exists as the baseline for the scratch-reuse ablation
	// (BenchmarkAblation_Runtime); production paths leave it false.
	EphemeralWorkers bool
}

// llcAlpha is the paper's α, the number of tiles that must fit in the LLC
// concurrently (α ≥ 3 for binary operations), and llcBeta its β, the
// number of tile-width accumulator arrays that must fit there. The paper
// uses 3 for both (§II-B2, Eqs. 1–2).
const (
	llcAlpha = 3
	llcBeta  = 3
)

// DefaultRowGrain is the default minimum rows-per-worker of the intra-tile
// split: small enough to keep every core busy on a full b_atomic tile,
// large enough that a worker's chunk amortizes the fan-out handoff.
const DefaultRowGrain = 16

// DefaultConfig returns a configuration for the current machine: detected
// LLC (fallback: the paper's 24 MB), α = β = 3, b_atomic derived from the
// LLC per §II-B2, ρ0^R and ρ0^W from the cost model, and a detected
// topology.
func DefaultConfig() Config {
	cost := costmodel.Default()
	cfg := Config{
		LLCBytes: DetectLLC(),
		RhoRead:  cost.RhoRead(),
		RhoWrite: cost.RhoWrite(),
		Topology: numa.Detect(),
		Cost:     cost,
		RowGrain: DefaultRowGrain,
	}
	cfg.BAtomic = deriveBAtomic(cfg.LLCBytes)
	return cfg
}

// PaperConfig returns the configuration of the paper's test system:
// 24 MB LLC, b_atomic = 1024 (k = 10), ρ0^R = 0.25, four sockets of ten
// cores.
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.LLCBytes = 24 << 20
	cfg.BAtomic = 1024
	cfg.RhoRead = 0.25
	cfg.Topology = numa.Paper()
	return cfg
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.LLCBytes <= 0 {
		return fmt.Errorf("core: non-positive LLC size %d", c.LLCBytes)
	}
	if c.BAtomic < 1 || c.BAtomic&(c.BAtomic-1) != 0 {
		return fmt.Errorf("core: b_atomic %d must be a positive power of two", c.BAtomic)
	}
	if c.RhoRead <= 0 || c.RhoRead > 1 {
		return fmt.Errorf("core: ρ0^R = %g outside (0,1]", c.RhoRead)
	}
	if c.RhoWrite <= 0 || c.RhoWrite > 1 {
		return fmt.Errorf("core: ρ0^W = %g outside (0,1]", c.RhoWrite)
	}
	if c.MemLimit < 0 {
		return fmt.Errorf("core: negative memory limit %d", c.MemLimit)
	}
	if c.RowGrain < 0 {
		return fmt.Errorf("core: negative row grain %d", c.RowGrain)
	}
	return c.Topology.Validate()
}

// HomeOfRow returns the socket that owns matrix row `row`: the paper's
// round-robin placement of tile-rows (§III-F) at b_atomic granularity. It is
// the one homing rule — operand tiles, result tiles, the cluster's merged
// product and every task queue go through it — so a different placement is
// a change to this one function.
func (c Config) HomeOfRow(row int) numa.Node {
	return c.Topology.HomeOfTileRow(row / c.BAtomic)
}

// RunHomed runs fn(team, i) once for every item i in [0, n) on the
// configuration's worker teams and returns when all have run. Item i is
// queued on the team that homes matrix row rowOf(i) — the first row the
// item works on — and runs there unless that team falls behind and a dry
// one takes it (sched.Runtime.RunIndexedCtx); team tells fn which. A nil
// ctx cannot be cancelled. A cancelled one stops the teams from picking up
// further items; the caller learns that from ctx, not from the error, which
// reports a failed run: *sched.TaskPanicError (its Item is i),
// *sched.WatchdogError (a positive watchdog bounds every item) or
// sched.ErrNoHealthyTeams.
func RunHomed(ctx context.Context, cfg Config, watchdog time.Duration, n int, rowOf func(i int) int, fn func(team *sched.Team, i int)) (sched.RunStats, error) {
	queues := make([][]int32, cfg.Topology.Sockets)
	for i := 0; i < n; i++ {
		home := cfg.HomeOfRow(rowOf(i))
		queues[home] = append(queues[home], int32(i))
	}
	return sched.RuntimeFor(cfg.Topology).RunIndexedCtx(ctx, queues, func(team *sched.Team, item int32) { fn(team, int(item)) },
		sched.RunOpts{Grain: cfg.RowGrain, Watchdog: watchdog})
}

// MaxDenseTileDim returns τ^d_max from Eq. 1: the dense tile side length
// such that α dense tiles fit in the LLC.
func (c Config) MaxDenseTileDim() int {
	d := int(math.Sqrt(float64(c.LLCBytes) / (llcAlpha * mat.SizeDense)))
	if d < 1 {
		d = 1
	}
	return d
}

// MaxSparseTileDim returns τ^sp_max from Eq. 2 for a sparse tile of
// density rho: the minimum of the memory-based bound (the tile must not
// occupy more than LLC/α) and the dimension-based bound (β accumulator
// arrays of one tile-width must fit in the LLC).
func (c Config) MaxSparseTileDim(rho float64) int {
	dimBound := float64(c.LLCBytes) / (llcBeta * mat.SizeDense)
	if rho <= 0 {
		// An empty tile has no memory bound; only the dimension bound
		// applies.
		return clampDim(dimBound)
	}
	memBound := math.Sqrt(float64(c.LLCBytes) / (llcAlpha * rho * mat.SizeSparse))
	return clampDim(math.Min(memBound, dimBound))
}

func clampDim(v float64) int {
	if v < 1 {
		return 1
	}
	if v > 1<<30 {
		return 1 << 30
	}
	return int(v)
}

// deriveBAtomic chooses b_atomic = 2^k equal to the largest power of two
// not exceeding τ^d_max, which reproduces the paper's b_atomic = 1024 for
// a 24 MB LLC (§II-B2).
func deriveBAtomic(llc int64) int {
	tau := int(math.Sqrt(float64(llc) / (llcAlpha * mat.SizeDense)))
	if tau < 2 {
		return 1
	}
	return 1 << (bits.Len(uint(tau)) - 1)
}

// DetectLLC reads the last-level cache size from sysfs, falling back to
// the paper's 24 MB when unavailable.
func DetectLLC() int64 {
	const fallback = 24 << 20
	for _, idx := range []string{"index3", "index2"} {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		if strings.HasSuffix(s, "K") {
			mult = 1 << 10
			s = strings.TrimSuffix(s, "K")
		} else if strings.HasSuffix(s, "M") {
			mult = 1 << 20
			s = strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v <= 0 {
			continue
		}
		return v * mult
	}
	return fallback
}
