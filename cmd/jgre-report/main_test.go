package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportCurrent renders the report with the arguments
// results/run_all.sh passes and fails on any byte difference from the
// committed results/report.md.
func TestReportCurrent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.md")
	if err := run([]string{"-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lineAt := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return ""
	}
	t.Fatalf("results/report.md is stale at line %d:\n  file: %q\n  code: %q\n"+
		"regenerate with `bash results/run_all.sh` and explain the change in CHANGES.md", i+1, lineAt(w), lineAt(g))
}
