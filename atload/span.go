package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one request share Req. Level names the depth of the
// onion the span was taken at: a level-N replay executes the request again
// with the calls of level N individually timed, so what causes a span is the
// span of the same Kind one level up (there is no parent ID: the two were
// recorded in different executions), and a layer's self time is the median of
// its span minus the medians of the spans one level beneath it.
type Span struct {
	ID      int    `json:"id"`
	Req     int    `json:"req"`
	Level   string `json:"level"`
	Kind    string `json:"kind"` // request kind the span belongs to
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends (the PerfTimer idiom:
// one reusable timer per span name, whose recorded values feed the report).
// It is used from the driver's single goroutine only.
type Recorder struct {
	epoch time.Time
	spans []Span
	reqs  int
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NextReq hands out the identifier the spans of one request share.
func (r *Recorder) NextReq() int { r.reqs++; return r.reqs }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(level, kind, name string, req int) int {
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Req: req, Level: level, Kind: kind, Name: name,
		StartNS: time.Since(r.epoch).Nanoseconds(),
	})
	return len(r.spans)
}

// End closes the span and returns its duration in milliseconds.
func (r *Recorder) End(id int) float64 {
	s := &r.spans[id-1]
	s.EndNS = time.Since(r.epoch).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e6
}

// Rename changes a recorded span's name, for a call whose nature is known
// only after it returns (an acquire that turned out to reload).
func (r *Recorder) Rename(id int, name string) { r.spans[id-1].Name = name }

// Millis returns the recorded durations of one span name at one level, of
// one request kind or (kind "") of all.
func (r *Recorder) Millis(level, kind, name string) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Level == level && s.Name == name && (kind == "" || s.Kind == kind) {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// Med is the median of Millis.
func (r *Recorder) Med(level, kind, name string) float64 { return median(r.Millis(level, kind, name)) }

// Kinds lists the request kinds that have a span of the given level and name,
// in order of first appearance.
func (r *Recorder) Kinds(level, name string) []string {
	var out []string
	seen := map[string]bool{}
	for i := range r.spans {
		if s := &r.spans[i]; s.Level == level && s.Name == name && !seen[s.Kind] {
			seen[s.Kind] = true
			out = append(out, s.Kind)
		}
	}
	return out
}

// Report prints one line per (level, name): count, median and p90.
func (r *Recorder) Report(w io.Writer) {
	type key struct{ level, kind, name string }
	by := map[key][]float64{}
	var keys []key
	for i := range r.spans {
		s := &r.spans[i]
		k := key{s.Level, s.Kind, s.Name}
		if _, ok := by[k]; !ok {
			keys = append(keys, k)
		}
		by[k] = append(by[k], float64(s.EndNS-s.StartNS)/1e6)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.level != b.level {
			return a.level < b.level
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.name < b.name
	})
	fmt.Fprintf(w, "  %-8s %-12s %-28s %6s %12s %12s\n", "level", "kind", "span", "n", "p50 ms", "p90 ms")
	for _, k := range keys {
		v := by[k]
		fmt.Fprintf(w, "  %-8s %-12s %-28s %6d %12.4f %12.4f\n", k.level, k.kind, k.name, len(v), median(v), quantile(v, 0.9))
	}
}

// WriteFile writes every span as one JSON document.
func (r *Recorder) WriteFile(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": r.spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
