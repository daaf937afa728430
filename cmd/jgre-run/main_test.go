package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestResultsCurrent pins results/ to the code: every results/<name>.txt
// is the report `jgre-run <name> -scale full` prints, byte for byte. The
// files are the scenario list, so a report added there is pinned too.
func TestResultsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every pinned scenario at full scale; skipped under -short")
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no results/*.txt files found")
	}
	for _, path := range files {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("results/%s.txt names no registered scenario", name)
			}
			env, err := s.Execute(context.Background(), scenario.Params{Scale: scenario.Full})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := write(&got, env, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				line, gotLine, wantLine := firstDiff(got.String(), string(want))
				t.Errorf("results/%s.txt is stale at line %d:\n  file: %q\n  code: %q\n"+
					"regenerate with `bash results/run_all.sh` and explain the change in CHANGES.md",
					name, line, wantLine, gotLine)
			}
		})
	}
}

// firstDiff returns the first 1-based line at which a and b differ, with
// that line from each ("" past the end).
func firstDiff(a, b string) (int, string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y || i >= len(al) || i >= len(bl) {
			return i + 1, x, y
		}
	}
}
