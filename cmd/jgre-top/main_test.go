package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGoldenDefended pins the dashboard of a defended run, whose one
// engagement at 149.3 s fills the DEFENDER panel. The run is seeded and
// on the virtual clock, so the bytes are the same on every run and
// worker count. Regenerate after an intended change with
//
//	go run ./cmd/jgre-top -scenario defended -duration 6m > cmd/jgre-top/testdata/defended.txt
func TestGoldenDefended(t *testing.T) {
	want, err := os.ReadFile("testdata/defended.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-scenario", "defended", "-duration", "6m"}, &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("dashboard differs from testdata/defended.txt at line %d:\n  file: %q\n  code: %q", i+1, w, g)
		}
	}
}
