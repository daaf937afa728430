package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/fleet"
)

// setUp returns a runner for the named workload after its set-up.
func setUp(t *testing.T, name string, seed int64) *runner {
	t.Helper()
	s, err := shapeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.setup(seed); err != nil {
		t.Fatal(err)
	}
	return newRunner(s, seed)
}

// runBatch makes one fleet.Run of n devices and returns its rollup.
func runBatch(t *testing.T, r *runner, n int, fleetSeed int64, l *layers) *fleet.Result {
	t.Helper()
	r.s.batch = n
	b, err := r.batch(fleetSeed, r.s.device, l)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed > 0 {
		t.Fatalf("%s: %d of %d trials failed; first: %v", r.s.name, r.failed, r.attempted, r.firstErr)
	}
	return b.res
}

func mustDigest(t *testing.T, res *fleet.Result) string {
	t.Helper()
	d, err := digest(res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestProbeTrialMatchesBaselineProbe pins the benchmark's rebuilt probe
// trial to the fleet workload it copies: the same fleet seed gives a
// byte-identical rollup.
func TestProbeTrialMatchesBaselineProbe(t *testing.T) {
	const seed = 42
	r := setUp(t, "probe", seed)
	got := runBatch(t, r, 256, seed, nil)
	want, err := fleet.Run(context.Background(), fleet.Config{Devices: 256, Workers: 1, Seed: seed}, fleet.BaselineProbe())
	if err != nil {
		t.Fatal(err)
	}
	got.Workload, want.Workload = "", ""
	if g, w := mustDigest(t, got), mustDigest(t, want); g != w {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		t.Errorf("probe rollup differs from fleet.BaselineProbe:\n got %s\nwant %s", gb, wb)
	}
}

// TestTimingLeavesRollupsUnchanged runs every workload untraced and
// with its layers timed (actor wrappers, wrapped stop predicates) and
// requires byte-identical rollups, with every trial timed.
func TestTimingLeavesRollupsUnchanged(t *testing.T) {
	sizes := map[string]int{"probe": 128, "probe-traced": 128, "defend": 3, "exhaust": 4}
	for _, s := range shapes() {
		t.Run(s.name, func(t *testing.T) {
			r := setUp(t, s.name, 3)
			n := sizes[s.name]
			plain := mustDigest(t, runBatch(t, r, n, 99, nil))
			l := &layers{}
			if timed := mustDigest(t, runBatch(t, r, n, 99, l)); timed != plain {
				t.Fatalf("timed rollup %s differs from untimed %s", timed, plain)
			}
			if l.trials != int64(n) || l.spans[trialSetup].n != int64(n) {
				t.Errorf("timed %d trials and %d set-ups, want %d", l.trials, l.spans[trialSetup].n, n)
			}
			switch s.name {
			case "defend":
				if l.spans[engageStep].n != int64(n) || l.spans[attackerStep].n == 0 || l.spans[benignStep].n == 0 {
					t.Errorf("defend: %d engage steps of %d trials, %d attacker and %d benign steps",
						l.spans[engageStep].n, n, l.spans[attackerStep].n, l.spans[benignStep].n)
				}
			case "exhaust":
				if l.spans[rebootStep].n != int64(n) || l.spans[engageStep].n != 0 {
					t.Errorf("exhaust: %d reboot and %d engage steps of %d trials",
						l.spans[rebootStep].n, l.spans[engageStep].n, n)
				}
			default:
				if l.spans[clientCall].n < 6*int64(n) {
					t.Errorf("%s: %d calls timed over %d trials", s.name, l.spans[clientCall].n, n)
				}
			}
		})
	}
}

// TestPercentileRefusesThinTail: a percentile needs minTail samples
// beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	h := newHist()
	for i := 1; i <= 99; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	if _, err := h.percentile(0.9); err == nil {
		t.Error("p90 over 99 samples (9 beyond) accepted")
	}
	h.observe(100 * time.Millisecond)
	p90, err := h.percentile(0.9)
	if err != nil {
		t.Fatalf("p90 over 100 samples refused: %v", err)
	}
	p50, err := h.percentile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket interpolation stays within 0.1% of the exact rank value.
	for _, c := range []struct{ got, want float64 }{{p50, 50}, {p90, 90}} {
		if d := c.got/c.want - 1; d > 0.001 || d < -0.001 {
			t.Errorf("percentile %.4f ms, want %.0f ms within 0.1%%", c.got, c.want)
		}
	}
	small := newHist()
	for i := 0; i < 19; i++ {
		small.observe(time.Millisecond)
	}
	if _, err := small.percentile(0.5); err == nil {
		t.Error("p50 over 19 samples accepted")
	}
}

// TestHistScaling: adding samples scaled by f scales every percentile by
// f, to within a bucket.
func TestHistScaling(t *testing.T) {
	h := newHist()
	for i := 1; i <= 100; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	for _, f := range []float64{0.5, 1, 1.7} {
		s := newHist()
		s.addScaled(h, f)
		s.addScaled(h, f)
		for _, p := range []float64{0.5, 0.9} {
			want, _ := h.percentile(p)
			got, err := s.percentile(p)
			if d := got/(want*f) - 1; err != nil || d > 2e-3 || d < -2e-3 {
				t.Errorf("p%g scaled by %g: %g ms (%v), want %g ms", 100*p, f, got, err, want*f)
			}
		}
	}
}

// TestDeviceSeedsDependOnlyOnSeed: a run's fleet and device seeds are a
// function of the seed argument, so two runners with one seed produce
// the same rollups and another seed produces others.
func TestDeviceSeedsDependOnlyOnSeed(t *testing.T) {
	for b := 0; b < 4; b++ {
		if batchSeed(7, b) != batchSeed(7, b) || batchSeed(7, b) == batchSeed(8, b) {
			t.Fatalf("batch %d: seeds 7 and 8 give %d and %d", b, batchSeed(7, b), batchSeed(8, b))
		}
	}
	digestOf := func(seed int64) string {
		r := setUp(t, "exhaust", seed)
		return mustDigest(t, runBatch(t, r, 3, batchSeed(seed, 0), nil))
	}
	a, b := digestOf(7), digestOf(7)
	if a != b {
		t.Errorf("seed 7 gave rollups %s and %s", a, b)
	}
	if c := digestOf(8); c == a {
		t.Errorf("seeds 7 and 8 gave the same rollup %s", a)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if q1, med, q3 := quartiles(xs); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the end-to-end run reports
// exactly BENCHMARK.json's end_to_end metrics and the traced run exactly
// its per_layer metrics, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	r := setUp(t, "exhaust", 1)
	r.s.batch = 4
	tr, err := r.perLayer(time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.endToEnd(time.Nanosecond); err == nil {
		t.Fatal("percentiles over one 4-device fleet run accepted")
	}
	r.s.batch = 128
	e2e, err := r.endToEnd(time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s: reported %+v (present %v), declared unit %s", kind, m.Name, g, ok, m.Unit)
			}
		}
		if len(got) != len(want) {
			var have []string
			for n := range got {
				have = append(have, n)
			}
			sort.Strings(have)
			t.Errorf("%s: reports %v, BENCHMARK.json declares %v", kind, have, names)
		}
	}
	check("end_to_end", spec.EndToEnd, e2e.metrics)
	// One fleet run has one slowness: the reference rate and times are the
	// wall ones scaled by it, the times to within a histogram bucket.
	slow := e2e.wall["wall.slowness"].Value
	for _, c := range []struct{ ref, wall, scale, tol float64 }{
		{e2e.metrics["devices_per_ref_s"].Value, e2e.wall["wall.devices_per_s"].Value, slow, 1e-9},
		{e2e.metrics["trial_ref_ms_p50"].Value, e2e.wall["wall.trial_ms_p50"].Value, 1 / slow, 2e-3},
		{e2e.metrics["trial_ref_ms_p90"].Value, e2e.wall["wall.trial_ms_p90"].Value, 1 / slow, 2e-3},
	} {
		if d := c.ref/(c.wall*c.scale) - 1; slow <= 0 || c.wall <= 0 || d > c.tol || d < -c.tol {
			t.Errorf("reference value %g is not wall value %g × %g", c.ref, c.wall, c.scale)
		}
	}
	check("per_layer", spec.PerLayer, tr.metrics())
}
