package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code contract: 0 clean, 1 findings, 2 usage
// error, 3 loader failure or empty pattern match. The empty-match case is
// the regression this file exists for — a typo'd pattern used to analyze
// nothing and exit 0, which CI read as "clean".
func TestExitCodes(t *testing.T) {
	// A throwaway module with one errwrap violation: the fixtures under
	// internal/lint/testdata are invisible to go list on purpose.
	dirty := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module dirty\n\ngo 1.22\n",
		"d.go":   "package dirty\n\nimport \"io\"\n\nfunc AtEOF(err error) bool { return err == io.EOF }\n",
	} {
		if err := os.WriteFile(filepath.Join(dirty, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"-C", "../..", "./internal/density"}, 0},
		{"package with a finding", []string{"-C", dirty, "./..."}, 1},
		{"bad flag", []string{"-nosuchflag"}, 2},
		{"typo pattern fails go list", []string{"-C", "../..", "./nosuchdir/..."}, 3},
		{"pattern matches no packages", []string{"-C", "../..", "./internal/lint/testdata/..."}, 3},
		{"module dir does not exist", []string{"-C", "../../nosuchmodule", "./..."}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(c.args, &stdout, &stderr)
			if got != c.want {
				t.Errorf("run(%q) = %d, want %d\nstdout: %s\nstderr: %s",
					c.args, got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}

func TestEmptyMatchMessage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-C", "../..", "./internal/lint/testdata/..."}, &stdout, &stderr); got != 3 {
		t.Fatalf("exit = %d, want 3 (stderr: %s)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "matched no packages") {
		t.Errorf("stderr should explain the empty match, got: %s", stderr.String())
	}
}

// TestSummary checks that -summary lists exactly the five analyzers, zero
// counts included, so CI logs show which analyzers actually ran.
func TestSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-C", "../..", "-summary", "./internal/density"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", got, stdout.String(), stderr.String())
	}
	want := "atlint summary (0 finding(s)):\n"
	for _, name := range []string{"ctxflow", "errwrap", "faultsite", "hotpath-alloc", "lockcheck"} {
		want += "  " + name + strings.Repeat(" ", 15-len(name)) + "0\n"
	}
	if got := stderr.String(); got != want {
		t.Errorf("summary:\n%s\nwant:\n%s", got, want)
	}
}
