// Package lint is the repo-specific static-analysis framework behind the
// atlint tool (cmd/atlint). It is deliberately stdlib-only: packages are
// parsed with go/parser, type-checked with go/types against export data
// produced by `go list -export` (see loader.go), and walked by a small set
// of analyzers that enforce conventions no compiler checks — allocation-free
// hot paths, lock discipline, context threading, fault-site registration
// and error wrapping. What a compiler, go vet, the race detector, leakcheck
// or a fuzz target can check is left to them (DESIGN.md §8).
//
// Diagnostics can be suppressed line by line with a comment of the form
//
//	//atlint:ignore <analyzer>[,<analyzer>...] [reason]
//
// placed either on the offending line or on the line directly above it.
// The analyzer list may be "all". A reason is not required by the parser
// but is required by reviewers; write one.
//
// To add an analyzer: create a file in this package declaring an
// *Analyzer with a unique Name, walk the syntax in Run via pass.Files and
// pass.Info, and append the analyzer to All. Cross-package analyses
// (faultsite's unused-manifest-entry check) accumulate facts in the
// Shared struct during Run and emit diagnostics from Finish after every
// package has been visited.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for both human and JSON output.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the go-vet-style human form: file:line:col: analyzer: msg.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run is invoked once per analyzed package;
// Finish (optional) once per Runner after all packages, for analyses that
// need the whole-repo view.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// Finish emits diagnostics that depend on facts accumulated across
	// packages in pass.Shared. Positions must be real file positions
	// recorded during Run.
	Finish func(sh *Shared, report func(pos token.Position, format string, args ...any))
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Sites is the fault-site manifest the faultsite analyzer validates
	// Do/Bitflip literals against; nil disables the membership check
	// (the manifest itself is still checked for duplicates).
	Sites map[string]bool
	// Shared accumulates cross-package facts for Finish hooks.
	Shared *Shared

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos for the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Shared is the cross-package fact store of one Runner. Analyzers append
// during Run; Finish hooks read after every package has been analyzed.
type Shared struct {
	// UsedSites maps each fault site referenced by a Do/Bitflip literal to
	// the positions of its call sites.
	UsedSites map[string][]token.Position
	// ManifestPos maps manifest entries (faultinject.Sites) to their
	// declaration positions; populated when the faultinject package is
	// among the analyzed set.
	ManifestPos map[string]token.Position
}

// Runner applies a set of analyzers to packages, handling suppression
// comments and cross-package Finish hooks. One Runner is one lint run.
type Runner struct {
	Analyzers []*Analyzer
	// Sites is copied into every Pass.
	Sites map[string]bool

	shared  *Shared
	ignores map[string]map[int][]string // file -> line -> suppressed analyzer names
}

// NewRunner returns a Runner over the given analyzers. sites may be nil to
// disable fault-site membership checking (fixtures inject their own).
func NewRunner(sites map[string]bool, analyzers ...*Analyzer) *Runner {
	return &Runner{
		Analyzers: analyzers,
		Sites:     sites,
		shared: &Shared{
			UsedSites:   make(map[string][]token.Position),
			ManifestPos: make(map[string]token.Position),
		},
		ignores: make(map[string]map[int][]string),
	}
}

// Package runs every analyzer over one loaded package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func (r *Runner) Package(pkg *Package) []Diagnostic {
	r.indexIgnores(pkg)
	var diags []Diagnostic
	for _, a := range r.Analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Sites:    r.Sites,
			Shared:   r.shared,
			analyzer: a,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		a.Run(pass)
	}
	diags = r.filter(diags)
	sortDiagnostics(diags)
	return diags
}

// Finish runs every analyzer's Finish hook and returns the surviving
// diagnostics. Call after all packages of the run have been analyzed.
func (r *Runner) Finish() []Diagnostic {
	var diags []Diagnostic
	for _, a := range r.Analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		a.Finish(r.shared, func(pos token.Position, format string, args ...any) {
			diags = append(diags, Diagnostic{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: name,
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	diags = r.filter(diags)
	sortDiagnostics(diags)
	return diags
}

// indexIgnores records the package's //atlint:ignore comments so both
// package and Finish diagnostics can be filtered against them.
func (r *Runner) indexIgnores(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := r.ignores[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					r.ignores[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], names...)
			}
		}
	}
}

// parseIgnore extracts the analyzer list from an //atlint:ignore comment.
func parseIgnore(text string) ([]string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, "atlint:ignore")
	if !ok {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		// Bare //atlint:ignore with no analyzer list suppresses nothing;
		// the explicit name is the audit trail.
		return nil, false
	}
	return strings.Split(fields[0], ","), true
}

// suppressed reports whether a diagnostic is covered by an ignore comment
// on its own line or the line directly above.
func (r *Runner) suppressed(d Diagnostic) bool {
	m := r.ignores[d.File]
	if m == nil {
		return false
	}
	for _, line := range [2]int{d.Line, d.Line - 1} {
		for _, name := range m[line] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

func (r *Runner) filter(diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if !r.suppressed(d) {
			kept = append(kept, d)
		}
	}
	return kept
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		HotpathAlloc,
		LockCheck,
		CtxFlow,
		FaultSite,
		ErrWrap,
	}
}
