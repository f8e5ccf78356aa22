// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (§IV) on scaled-down versions
// of the Table I workloads. Runners return structured results and render
// aligned text tables, so the same code backs the atbench CLI and the
// bench_test.go benchmark suite.
//
// Scaling: experiments run at a linear scale factor s (default 1/16).
// Matrix dimensions scale with s and non-zero counts with s², preserving
// every density in Table I. The cache-derived tuning parameters scale
// along (LLC with s², hence b_atomic and the tile-size bounds with s), so
// the tile structure — blocks per matrix, tiles per block — matches the
// paper's geometry. Absolute times differ from the paper's testbed; the
// claims under reproduction are the *shapes*: who wins, by what factor,
// and where the crossovers sit. EXPERIMENTS.md records paper-vs-measured
// for each figure.
package exp

import (
	"fmt"
	"io"
	"math/bits"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/gen"
	"atmatrix/internal/mat"
	"atmatrix/internal/numa"
)

// Options configures a harness run.
type Options struct {
	// Scale is the linear scale factor relative to paper-size matrices.
	Scale float64
	// IDs restricts the run to a subset of Table I (nil = all).
	IDs []string
	// FlopCap skips dense approaches whose m·k·n product exceeds this
	// budget (0 = no skipping). Dense flops on hypersparse 100K-row
	// matrices are as hopeless here as they were on the paper's testbed;
	// the harness reports them as skipped rather than stalling for hours.
	FlopCap float64
	// Topology overrides the simulated NUMA topology (zero = detect).
	Topology numa.Topology
	// MemLimitFrac, when positive, sets the flexible result memory limit
	// to this fraction of the estimated all-dense result footprint.
	MemLimitFrac float64
	// Reps repeats each timed measurement and keeps the fastest run,
	// suppressing scheduler noise on shared machines (default 1).
	Reps int
	// CSVDir, when non-empty, additionally exports every rendered table
	// as a CSV file into this directory.
	CSVDir string
	// Out receives the rendered tables (nil = io.Discard).
	Out io.Writer
}

// DefaultOptions returns the configuration used for the recorded runs in
// EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{
		Scale:   1.0 / 16,
		FlopCap: 6e9,
	}
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// Config derives the scaled system configuration: the paper's 24 MB LLC
// scaled by s², b_atomic = 1024·s (power of two, ≥ 16), ρ0^R = 0.25, and
// the server's cost table costmodel.Default() with its ρ0^W.
func (o Options) Config() core.Config {
	cfg := core.PaperConfig()
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	llc := int64(float64(cfg.LLCBytes) * s * s)
	if llc < 1<<14 {
		llc = 1 << 14
	}
	cfg.LLCBytes = llc
	b := int(1024 * s)
	if b < 16 {
		b = 16
	}
	// Round down to a power of two.
	b = 1 << (bits.Len(uint(b)) - 1)
	cfg.BAtomic = b
	if o.Topology.Sockets > 0 {
		cfg.Topology = o.Topology
	} else {
		cfg.Topology = numa.Detect()
	}
	return cfg
}

// Specs resolves the selected Table I entries.
func (o Options) Specs() ([]gen.Spec, error) {
	if len(o.IDs) == 0 {
		return gen.PaperTable(), nil
	}
	var out []gen.Spec
	for _, id := range o.IDs {
		s, err := gen.Lookup(id)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Generate builds one spec's matrix at the run scale.
func (o Options) Generate(s gen.Spec) (*mat.COO, error) {
	scale := o.Scale
	if scale <= 0 {
		scale = 1
	}
	return s.Generate(scale)
}

// timed runs f once and returns its duration.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// timedBest runs f o.Reps times (at least once) and returns the fastest
// duration — the standard mitigation for one-shot timing noise.
func (o Options) timedBest(f func()) time.Duration {
	reps := o.Reps
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		d := timed(f)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// skipDense reports whether a dense-flop approach over m·k·n should be
// skipped under the flop cap.
func (o Options) skipDense(m, k, n int) bool {
	if o.FlopCap <= 0 {
		return false
	}
	return float64(m)*float64(k)*float64(n) > o.FlopCap
}

// fmtDur renders a duration compactly for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders a byte count with binary units.
func fmtBytes(b int64) string {
	switch {
	case b < 0:
		return "-"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	}
}

// fmtSpeedup renders a relative-performance factor (baseline ≡ 1).
func fmtSpeedup(v float64) string {
	if v <= 0 {
		return "skip"
	}
	return fmt.Sprintf("%.2fx", v)
}
