package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
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
	checkGolden(t, "testdata/defended.txt", "-scenario", "defended", "-duration", "6m")
}

// TestGoldenFleet pins the FLEET panel at one and at two workers: the
// panel renders the sweeps' rollups only, which are the same for any
// worker count. Regenerate after an intended change with
//
//	go run ./cmd/jgre-top -scenario fleet -fleet-devices 256 > cmd/jgre-top/testdata/fleet.txt
func TestGoldenFleet(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			checkGolden(t, "testdata/fleet.txt", "-scenario", "fleet", "-fleet-devices", "256")
		})
	}
}

// checkGolden runs jgre-top with args and fails at the first line where
// its output differs from the file at path.
func checkGolden(t *testing.T, path string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(args, &got); err != nil {
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
			t.Fatalf("dashboard differs from %s at line %d:\n  file: %q\n  code: %q", path, i+1, w, g)
		}
	}
}

// TestSamplerKeepsEverySample checks that the sampler holds every
// snapshot when the tick does not divide the duration: 2m at 7s samples
// t = 0, 7, …, 119 s and the final 126 s, 19 in all, with none evicted.
func TestSamplerKeepsEverySample(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-scenario", "idle", "-duration", "2m", "-tick", "7s"}, &got); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(got.String(), "\n")
	if want := "JGRE-TOP  scenario=idle  t=126s  tick=7s  samples=19"; header != want {
		t.Errorf("header = %q, want %q", header, want)
	}
}

// TestRejectsNonPositiveTick checks that a zero or negative sampling
// interval is an error naming the flag, not a division by zero or a
// backwards clock advance.
func TestRejectsNonPositiveTick(t *testing.T) {
	for _, tick := range []string{"0", "-1s"} {
		err := run([]string{"-scenario", "idle", "-tick", tick}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-tick") {
			t.Errorf("-tick %s: err = %v, want an error naming -tick", tick, err)
		}
	}
}
