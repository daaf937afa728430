// Package telemetry is the simulator's unified metrics layer: a
// deterministic registry of counters, gauges and fixed-bucket histograms
// that every subsystem of a device — binder driver, ART runtimes, the
// JGRE defender, the fault injector — instruments itself into. Each
// simulated device owns one registry and every series lives in exactly
// one of them; nothing here is process-global.
//
// Two properties shape the design, both driven by the repo-wide
// determinism contract (equal seeds ⇒ byte-identical envelopes, for any
// worker count):
//
//   - No wall-clock reads, ever. Instruments record only values the
//     caller hands them — virtual-time durations, counts, sizes — so a
//     faulted or parallel run observes exactly what a sequential one
//     does. Rates and trends come from the virtual-tick Sampler, not
//     from timestamps taken inside the registry.
//   - Zero allocation on the hot path. Instrument handles are resolved
//     once at wiring time (Registry.Counter and friends may allocate);
//     Inc/Add/Set/Observe are single atomic operations on pre-sized
//     storage. The logged-transact micro-benchmark holds the
//     instrumented path within a few percent of the bare one.
//
// Values use atomics not because the simulation core is concurrent (it
// is single-threaded per device) but because /proc/jgre_metrics may
// render from another goroutine while the device runs (see
// internal/device/telemetry_race_test.go).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the instrument types a registry can hold.
type Kind int

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindGaugeFunc
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing cumulative metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Values are float64s stored
// as bits, so Set is one atomic store.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (CAS loop; the simulation core is
// single-threaded per device, so contention is the rare cross-sweep
// case).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are
// chosen at registration and never change, so Observe is a linear scan
// over a handful of bounds plus two atomic adds — no allocation, no
// sorting, no dynamic resize.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 sum as bits
}

// Observe records one sample. NaN observations are dropped (they would
// poison the sum and render as unparseable exposition text).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (the +Inf bucket is implicit).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket counts in bound order, with the
// implicit +Inf bucket last (observations above every bound).
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	var below uint64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
		below += out[i]
	}
	out[len(h.bounds)] = h.count.Load() - below
	return out
}

// DurationBuckets is the default virtual-duration bucket ladder in
// seconds, spanning the sub-millisecond IPC costs up to multi-second
// analysis runs.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default payload-size bucket ladder in bytes.
var SizeBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20}

// instrument is one registered metric.
type instrument struct {
	name string
	help string
	kind Kind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry holds a named set of instruments. Each simulated device owns
// one. The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*instrument
	order []string // sorted lazily at render time
	dirty bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

// lookup returns the named instrument, creating it with mk on first use.
// Re-registering an existing name with a different kind panics — a
// wiring bug caught at boot, like the scenario registry's duplicate
// check.
func (r *Registry) lookup(name, help string, kind Kind, mk func() *instrument) *instrument {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[name]; ok {
		if in.kind != kind && !(in.kind == KindGaugeFunc && kind == KindGauge) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", name, kind, in.kind))
		}
		return in
	}
	in := mk()
	in.name, in.help, in.kind = name, help, kind
	r.byKey[name] = in
	r.dirty = true
	return in
}

// Counter returns (registering on first use) the named counter.
// Metric names follow the Prometheus convention, with an optional
// {label="value"} suffix baked into the name — the registry treats the
// whole string as the series key.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, KindCounter, func() *instrument {
		return &instrument{counter: &Counter{}}
	}).counter
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, KindGauge, func() *instrument {
		return &instrument{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a pull gauge: fn is invoked at render/snapshot
// time, so producers that already keep their own counters (the binder
// driver's LogStats, an ART VM's table sizes) pay nothing on their hot
// path. Re-registering the same name replaces the callback — a service
// restarting after a soft reboot re-points the gauge at its new
// incarnation.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	in := r.lookup(name, help, KindGaugeFunc, func() *instrument { return &instrument{} })
	r.mu.Lock()
	in.fn = fn
	r.mu.Unlock()
}

// Histogram returns (registering on first use) the named fixed-bucket
// histogram. bounds must be ascending; nil selects DurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.lookup(name, help, KindHistogram, func() *instrument {
		if bounds == nil {
			bounds = DurationBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: %s bucket bounds not ascending", name))
			}
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Uint64, len(h.bounds))
		return &instrument{hist: h}
	}).hist
}

// sortedInstruments returns the instruments in name order, re-sorting
// only when a registration happened since the last call.
func (r *Registry) sortedInstruments() []*instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		r.order = r.order[:0]
		for name := range r.byKey {
			r.order = append(r.order, name)
		}
		sort.Strings(r.order)
		r.dirty = false
	}
	out := make([]*instrument, len(r.order))
	for i, name := range r.order {
		out[i] = r.byKey[name]
	}
	return out
}

// baseName strips a {label="..."} suffix, returning the metric family
// name HELP/TYPE headers apply to.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelSuffix returns the {…} part of a series name, or "".
func labelSuffix(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}

// formatValue renders a sample the way Prometheus text exposition does;
// NaN and ±Inf from misbehaving gauge callbacks render as their
// exposition spellings rather than breaking the scrape.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// RenderProm renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE headers per metric family,
// series sorted by name, histograms expanded into cumulative _bucket
// series plus _sum and _count. The output is a pure function of the
// instrument values, so two identical runs render identical bytes —
// which is what lets /proc/jgre_metrics be diffed across runs like any
// other simulator artifact.
func (r *Registry) RenderProm() []byte {
	var b strings.Builder
	b.Grow(1 << 12)
	lastFamily := ""
	for _, in := range r.sortedInstruments() {
		fam := baseName(in.name)
		if fam != lastFamily {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam, in.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, in.kind)
			lastFamily = fam
		}
		switch in.kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s %d\n", in.name, in.counter.Value())
		case KindGauge:
			fmt.Fprintf(&b, "%s %s\n", in.name, formatValue(in.gauge.Value()))
		case KindGaugeFunc:
			v := math.NaN()
			if in.fn != nil {
				v = in.fn()
			}
			fmt.Fprintf(&b, "%s %s\n", in.name, formatValue(v))
		case KindHistogram:
			labels := labelSuffix(in.name)
			counts := in.hist.BucketCounts()
			var cum uint64
			for i, bound := range in.hist.bounds {
				cum += counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", fam, mergeLabel(labels, "le", formatValue(bound)), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", fam, mergeLabel(labels, "le", "+Inf"), in.hist.Count())
			fmt.Fprintf(&b, "%s_sum%s %s\n", fam, labels, formatValue(in.hist.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", fam, labels, in.hist.Count())
		}
	}
	return []byte(b.String())
}

// mergeLabel inserts label="value" into an existing {…} suffix (or
// creates one).
func mergeLabel(labels, key, value string) string {
	pair := fmt.Sprintf(`%s=%q`, key, value)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// Snapshot flattens the registry into name → value, a JSON-friendly
// form for programmatic readers. Histograms flatten to _count and _sum
// entries.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, in := range r.sortedInstruments() {
		switch in.kind {
		case KindCounter:
			out[in.name] = float64(in.counter.Value())
		case KindGauge:
			out[in.name] = in.gauge.Value()
		case KindGaugeFunc:
			if in.fn != nil {
				if v := in.fn(); !math.IsNaN(v) {
					out[in.name] = v
				}
			}
		case KindHistogram:
			fam, labels := baseName(in.name), labelSuffix(in.name)
			out[fam+"_count"+labels] = float64(in.hist.Count())
			out[fam+"_sum"+labels] = in.hist.Sum()
		}
	}
	return out
}

// Value returns one series' current value by name (histograms return
// their count) and whether the series exists — the Sampler's read path.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	in, ok := r.byKey[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch in.kind {
	case KindCounter:
		return float64(in.counter.Value()), true
	case KindGauge:
		return in.gauge.Value(), true
	case KindGaugeFunc:
		if in.fn == nil {
			return 0, false
		}
		return in.fn(), true
	case KindHistogram:
		return float64(in.hist.Count()), true
	}
	return 0, false
}

// Names returns every registered series name in sorted order.
func (r *Registry) Names() []string {
	ins := r.sortedInstruments()
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.name
	}
	return out
}
