package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sharedLoader builds one Loader for the whole test binary: the go list
// run compiles export data for the module and the stdlib packages the
// fixtures import, which is the expensive part.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader("../..",
			"./...", "fmt", "sync", "context", "errors", "io")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

// runFixture analyzes one fixture package with one analyzer and compares
// the rendered diagnostics (package pass + Finish pass) against the
// golden file testdata/<name>.golden.
func runFixture(t *testing.T, a *Analyzer, name, importPath string, sites map[string]bool) {
	t.Helper()
	loader := testLoader(t)
	dir := filepath.Join("testdata", "src", name)
	if importPath == "" {
		importPath = "atmatrix/internal/lint/testdata/src/" + name
	}
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	runner := NewRunner(sites, a)
	diags := runner.Package(pkg)
	diags = append(diags, runner.Finish()...)

	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "%s:%d:%d: %s: %s\n", filepath.Base(d.File), d.Line, d.Col, d.Analyzer, d.Message)
	}
	got := sb.String()

	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestHotpathAlloc(t *testing.T) {
	runFixture(t, HotpathAlloc, "hotpath", "", nil)
}

func TestLockCheck(t *testing.T) {
	runFixture(t, LockCheck, "lockcheck", "", nil)
}

func TestCtxFlow(t *testing.T) {
	runFixture(t, CtxFlow, "ctxflow", "", nil)
}

func TestFaultSite(t *testing.T) {
	// "suppressed.site" is deliberately absent: the unknown-site finding
	// it triggers must be swallowed by the //atlint:ignore line.
	runFixture(t, FaultSite, "faultsite", "", map[string]bool{
		"known.site": true,
	})
}

// TestFaultSiteManifest impersonates the real manifest package path so the
// duplicate-entry and unused-entry (Finish) checks fire.
func TestFaultSiteManifest(t *testing.T) {
	runFixture(t, FaultSite, "sitesdup", "atmatrix/internal/faultinject", map[string]bool{
		"a.site": true,
		"b.site": true,
	})
}

func TestErrWrap(t *testing.T) {
	runFixture(t, ErrWrap, "errwrap", "", nil)
}

// TestRepoIsClean runs the full suite over the real module, pinning the
// make lint gate: the tree must stay free of findings (suppressions with
// reasons included).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzing the whole module is not short")
	}
	loader := testLoader(t)
	pkgs, err := loader.Packages()
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]bool{}
	// Use the real manifest by loading it through the analyzed packages:
	// the faultsite analyzer validates against Pass.Sites, which the atlint
	// driver populates from faultinject.SiteSet(). Tests cannot import that
	// package here without creating an import cycle for the linter's own
	// analysis, so read the manifest from the loaded type information
	// instead.
	for _, pkg := range pkgs {
		if pkg.ImportPath == "atmatrix/internal/faultinject" {
			r := NewRunner(nil, FaultSite)
			r.Package(pkg)
			// collectManifest filled the shared manifest positions.
			for site := range r.shared.ManifestPos {
				sites[site] = true
			}
		}
	}
	runner := NewRunner(sites, All()...)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runner.Package(pkg)...)
	}
	diags = append(diags, runner.Finish()...)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text string
		want []string
		ok   bool
	}{
		{"//atlint:ignore errwrap reason here", []string{"errwrap"}, true},
		{"//atlint:ignore errwrap,ctxflow why", []string{"errwrap", "ctxflow"}, true},
		{"// atlint:ignore lockcheck spaced marker", []string{"lockcheck"}, true},
		{"//atlint:ignore", nil, false}, // bare ignore suppresses nothing
		{"//atlint:hotpath", nil, false},
		{"// ordinary comment", nil, false},
	}
	for _, c := range cases {
		got, ok := parseIgnore(c.text)
		if ok != c.ok {
			t.Errorf("parseIgnore(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) && c.ok {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Run == nil {
			t.Fatalf("analyzer %+v missing name or run", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
