package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jgre_test_total", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	// Same name returns the same handle.
	if r.Counter("jgre_test_total", "test counter").Value() != 42 {
		t.Fatal("re-lookup did not return the same counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("jgre_test_gauge", "test gauge")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("Value = %v, want 2.25", got)
	}
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("jgre_fn", "pull gauge", func() float64 { return 1 })
	if v, ok := r.Value("jgre_fn"); !ok || v != 1 {
		t.Fatalf("Value = %v,%v want 1,true", v, ok)
	}
	// Re-registering re-points the callback (soft-reboot semantics).
	r.GaugeFunc("jgre_fn", "pull gauge", func() float64 { return 7 })
	if v, _ := r.Value("jgre_fn"); v != 7 {
		t.Fatalf("after replace Value = %v, want 7", v)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("jgre_lat_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5 (NaN dropped)", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("Sum = %v, want 106", got)
	}
	wantBuckets := []uint64{2, 1, 1, 1} // ≤1, ≤2, ≤4, +Inf
	got := h.BucketCounts()
	if len(got) != len(wantBuckets) {
		t.Fatalf("BucketCounts len = %d, want %d", len(got), len(wantBuckets))
	}
	for i, w := range wantBuckets {
		if got[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], w, got)
		}
	}
	if b := h.Bounds(); len(b) != 3 || b[2] != 4 {
		t.Fatalf("Bounds = %v", b)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("jgre_dur_seconds", "durations", nil)
	if got, want := len(h.Bounds()), len(DurationBuckets); got != want {
		t.Fatalf("default bounds len = %d, want %d", got, want)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("jgre_a", "a")
	mustPanic("kind mismatch", func() { r.Gauge("jgre_a", "a") })
	mustPanic("empty name", func() { r.Counter("", "x") })
	mustPanic("non-ascending bounds", func() {
		r.Histogram("jgre_bad", "x", []float64{2, 1})
	})
}

func TestGaugeOverGaugeFuncTolerated(t *testing.T) {
	// Looking up a GaugeFunc name with Gauge must not panic (device code
	// probes by name), though the returned gauge is the placeholder.
	r := NewRegistry()
	r.GaugeFunc("jgre_fn2", "pull", func() float64 { return 9 })
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	r.Gauge("jgre_fn2", "pull")
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCounter:   "counter",
		KindGauge:     "gauge",
		KindGaugeFunc: "gauge",
		KindHistogram: "histogram",
		Kind(99):      "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestRenderProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("jgre_tx_total", "transactions").Add(3)
	r.Gauge("jgre_occupancy", "ring occupancy").Set(0.5)
	r.GaugeFunc("jgre_pull", "pull gauge", func() float64 { return 2 })
	h := r.Histogram("jgre_lat_seconds", "latency", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	// Labeled series of one family share HELP/TYPE headers.
	r.Counter(`jgre_kills_total{verdict="guilty"}`, "kills").Inc()
	r.Counter(`jgre_kills_total{verdict="innocent"}`, "kills")

	text := string(r.RenderProm())
	want := strings.Join([]string{
		`# HELP jgre_kills_total kills`,
		`# TYPE jgre_kills_total counter`,
		`jgre_kills_total{verdict="guilty"} 1`,
		`jgre_kills_total{verdict="innocent"} 0`,
		`# HELP jgre_lat_seconds latency`,
		`# TYPE jgre_lat_seconds histogram`,
		`jgre_lat_seconds_bucket{le="1"} 1`,
		`jgre_lat_seconds_bucket{le="2"} 2`,
		`jgre_lat_seconds_bucket{le="+Inf"} 3`,
		`jgre_lat_seconds_sum 11`,
		`jgre_lat_seconds_count 3`,
		`# HELP jgre_occupancy ring occupancy`,
		`# TYPE jgre_occupancy gauge`,
		`jgre_occupancy 0.5`,
		`# HELP jgre_pull pull gauge`,
		`# TYPE jgre_pull gauge`,
		`jgre_pull 2`,
		`# HELP jgre_tx_total transactions`,
		`# TYPE jgre_tx_total counter`,
		`jgre_tx_total 3`,
		``,
	}, "\n")
	if text != want {
		t.Fatalf("RenderProm mismatch:\ngot:\n%s\nwant:\n%s", text, want)
	}
	validatePromText(t, text)
}

func TestRenderPromNonFinite(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("jgre_nan", "nan", func() float64 { return math.NaN() })
	r.GaugeFunc("jgre_pinf", "pinf", func() float64 { return math.Inf(1) })
	r.GaugeFunc("jgre_ninf", "ninf", func() float64 { return math.Inf(-1) })
	r.GaugeFunc("jgre_nilfn", "never set", nil)
	text := string(r.RenderProm())
	for _, want := range []string{"jgre_nan NaN\n", "jgre_pinf +Inf\n", "jgre_ninf -Inf\n", "jgre_nilfn NaN\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	validatePromText(t, text)
}

func TestRenderPromDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in different orders; output must not care.
		names := []string{"jgre_c", "jgre_a", "jgre_b"}
		for _, n := range names {
			r.Counter(n, "x").Add(2)
		}
		return r
	}
	a := build()
	if string(a.RenderProm()) != string(a.RenderProm()) {
		t.Fatal("render is not idempotent")
	}
	if string(a.RenderProm()) != string(build().RenderProm()) {
		t.Fatal("identical registries rendered different bytes")
	}
	// Late registration after a render re-sorts correctly.
	a.Counter("jgre_0_first", "late").Inc()
	text := string(a.RenderProm())
	if !strings.HasPrefix(text, "# HELP jgre_0_first late\n") {
		t.Fatalf("late registration not re-sorted:\n%s", text)
	}
}

// validatePromText is a minimal checker for the text exposition format:
// every non-comment line is `<series> <value>`, the value parses as a
// float (NaN/±Inf included), and each sample's family has TYPE and HELP
// headers that precede it.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line inside exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("line %d: malformed header %q", ln+1, line)
			}
			if f[1] == "TYPE" {
				switch f[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("line %d: bad TYPE %q", ln+1, f[3])
				}
				typed[f[2]] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, val, err)
		}
		fam := baseName(series)
		fam = strings.TrimSuffix(fam, "_bucket")
		fam = strings.TrimSuffix(fam, "_sum")
		fam = strings.TrimSuffix(fam, "_count")
		if !typed[fam] && !typed[baseName(series)] {
			t.Fatalf("line %d: sample %q has no preceding TYPE header", ln+1, series)
		}
	}
}

func TestSnapshotAndValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("jgre_c_total", "c").Add(5)
	r.Gauge("jgre_g", "g").Set(1.5)
	r.GaugeFunc("jgre_f", "f", func() float64 { return 8 })
	r.GaugeFunc("jgre_f_nan", "f", func() float64 { return math.NaN() })
	h := r.Histogram(`jgre_h_seconds{phase="read"}`, "h", []float64{1})
	h.Observe(0.25)
	h.Observe(2)

	snap := r.Snapshot()
	want := map[string]float64{
		"jgre_c_total":                       5,
		"jgre_g":                             1.5,
		"jgre_f":                             8,
		`jgre_h_seconds_count{phase="read"}`: 2,
		`jgre_h_seconds_sum{phase="read"}`:   2.25,
	}
	for k, wv := range want {
		if gv, ok := snap[k]; !ok || gv != wv {
			t.Errorf("snapshot[%q] = %v,%v want %v", k, gv, ok, wv)
		}
	}
	if _, ok := snap["jgre_f_nan"]; ok {
		t.Error("NaN gauge func leaked into snapshot")
	}

	if v, ok := r.Value("jgre_c_total"); !ok || v != 5 {
		t.Errorf("Value(counter) = %v,%v", v, ok)
	}
	if v, ok := r.Value(`jgre_h_seconds{phase="read"}`); !ok || v != 2 {
		t.Errorf("Value(histogram) = %v,%v want count 2", v, ok)
	}
	if _, ok := r.Value("jgre_missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	names := r.Names()
	if len(names) != 5 {
		t.Fatalf("Names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

// TestHotPathAllocs pins the zero-alloc contract: recording into an
// already-registered instrument must not allocate.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jgre_allocs_total", "x")
	g := r.Gauge("jgre_allocs_g", "x")
	h := r.Histogram("jgre_allocs_h", "x", []float64{1, 2, 4, 8})
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(2) }); n != 0 {
		t.Errorf("Counter allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Set(1); g.Add(0.5) }); n != 0 {
		t.Errorf("Gauge allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(3) }); n != 0 {
		t.Errorf("Histogram allocs/op = %v, want 0", n)
	}
}
