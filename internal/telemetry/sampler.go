package telemetry

import (
	"math"
	"time"

	"repro/internal/trace"
)

// Sample is one (virtual time, value) reading of a tracked series.
type Sample struct {
	T time.Duration
	V float64
}

// Sampler periodically snapshots selected registry series on the
// virtual clock, keeping a bounded history per series — the data source
// behind jgre-top's sparklines. It is pull-driven: the owner calls
// MaybeSample(now) from its scheduling loop, and the sampler takes one
// snapshot per elapsed tick boundary. Nothing here reads a wall clock or
// advances the virtual one, so attaching a sampler never perturbs a
// run's trajectory.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	capacity int
	tracked  []string
	rings    map[string]*trace.Ring[Sample]
	lastTick time.Duration
	primed   bool
}

// DefaultSampleCapacity bounds each tracked series' history.
const DefaultSampleCapacity = 240

// NewSampler creates a sampler over reg taking one snapshot per
// interval of virtual time (0 selects one second), holding up to
// capacity samples per series (0 selects DefaultSampleCapacity).
func NewSampler(reg *Registry, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		capacity: capacity,
		rings:    make(map[string]*trace.Ring[Sample]),
	}
}

// Track adds series (by registry name) to the sampled set. Unknown
// names are tolerated — they start producing samples the moment the
// series registers.
func (s *Sampler) Track(names ...string) {
	for _, name := range names {
		if _, ok := s.rings[name]; ok {
			continue
		}
		s.tracked = append(s.tracked, name)
		r := trace.NewRing[Sample](s.capacity)
		s.rings[name] = &r
	}
}

// Interval returns the virtual-time sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// MaybeSample snapshots every tracked series if now has crossed the next
// tick boundary, and reports whether a snapshot was taken. The virtual
// clock advances in jumps, so a single call can cover several elapsed
// intervals; one snapshot (at now) is taken for the whole jump — the
// sampler records the state that actually existed, not interpolations.
func (s *Sampler) MaybeSample(now time.Duration) bool {
	if s.primed && now < s.lastTick+s.interval {
		return false
	}
	s.primed = true
	s.lastTick = now - (now % s.interval)
	for _, name := range s.tracked {
		v, ok := s.reg.Value(name)
		if !ok || math.IsNaN(v) {
			continue
		}
		s.rings[name].Push(Sample{T: now, V: v})
	}
	return true
}

// Series returns the sampled history of one tracked series, oldest
// first.
func (s *Sampler) Series(name string) []Sample {
	r, ok := s.rings[name]
	if !ok {
		return nil
	}
	return r.AppendTo(nil)
}

// Values returns just the values of a tracked series, oldest first —
// the shape sparkline renderers take.
func (s *Sampler) Values(name string) []float64 {
	samples := s.Series(name)
	out := make([]float64, len(samples))
	for i, sm := range samples {
		out[i] = sm.V
	}
	return out
}

// Rate converts a cumulative series' history into per-second deltas
// (len-1 points): the growth-rate view of a counter like JGR adds or
// binder transactions. Non-positive time steps yield a zero rate rather
// than dividing by zero.
func Rate(samples []Sample) []float64 {
	if len(samples) < 2 {
		return nil
	}
	out := make([]float64, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		dt := samples[i].T - samples[i-1].T
		if dt <= 0 {
			continue
		}
		out[i-1] = (samples[i].V - samples[i-1].V) / dt.Seconds()
	}
	return out
}

// Dropped returns how many of the oldest snapshots the history no
// longer holds: the most samples any one tracked series' ring has
// evicted. A snapshot reaches every series that has a value, so this is
// the count of ticks the longest sparkline has lost off its left edge.
func (s *Sampler) Dropped() uint64 {
	var n uint64
	for _, r := range s.rings {
		n = max(n, r.Dropped())
	}
	return n
}

// Tracked returns the tracked series names in tracking order.
func (s *Sampler) Tracked() []string {
	return append([]string(nil), s.tracked...)
}
