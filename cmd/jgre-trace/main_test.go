package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/device"
	"repro/internal/trace"
)

// fig4Config is the golden trace's shape: seed 1, every transaction
// sampled, a 512-span ring (small enough to keep the golden file lean,
// and nonzero eviction so the golden also covers the ring-wrap path).
func fig4Config() trace.Config {
	return trace.Config{Enabled: true, Capacity: 512, Sample: 1}
}

// TestGoldenFig4Trace pins the single-device export byte-for-byte: the
// fig. 4 population plus one attacker, traced to first detection, must
// reproduce testdata/fig4_trace.json exactly and validate against the
// trace-event schema. Regenerate with:
//
//	go run ./cmd/jgre-trace -seed 1 -capacity 512 -o cmd/jgre-trace/testdata/fig4_trace.json
func TestGoldenFig4Trace(t *testing.T) {
	want, err := os.ReadFile("testdata/fig4_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runSingle(&got, 1, fig4Config()); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(got.Bytes()); err != nil {
		t.Fatalf("export failed schema validation: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("traced run diverged from golden (got %d bytes, want %d); regenerate only if the trace format intentionally changed",
			got.Len(), len(want))
	}
}

// TestSingleTraceDeterministic runs the traced device twice and demands
// byte-identical exports — the trace stream is a pure function of
// (seed, trace config).
func TestSingleTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := runSingle(&a, 7, trace.Config{Enabled: true, Capacity: 256}); err != nil {
		t.Fatal(err)
	}
	if err := runSingle(&b, 7, trace.Config{Enabled: true, Capacity: 256}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated traced runs diverged")
	}
}

// TestFleetTraceIdentical pins the fleet export's independence from
// scheduling and from slot recycling: the merged trace must be
// byte-identical across worker counts and to a run whose devices all
// boot fresh (device.SetCloneBoot(false)).
func TestFleetTraceIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet trace comparison in -short mode")
	}
	const devices = 8
	tcfg := trace.Config{Enabled: true, Capacity: 512}
	run := func(workers int) []byte {
		var buf bytes.Buffer
		if err := runFleet(&buf, devices, workers, 1042, tcfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := run(1)
	if err := trace.ValidateChrome(base); err != nil {
		t.Fatalf("fleet export failed schema validation: %v", err)
	}
	if !bytes.Equal(run(4), base) {
		t.Fatal("workers=4 diverged from workers=1")
	}
	device.SetCloneBoot(false)
	defer device.SetCloneBoot(true)
	if !bytes.Equal(run(4), base) {
		t.Fatal("workers=4 fresh boots diverged from workers=1 recycled slots")
	}
}
