package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestSamplerTicks(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jgre_tx_total", "tx")
	s := NewSampler(r, time.Second, 8)
	s.Track("jgre_tx_total")

	if !s.MaybeSample(0) {
		t.Fatal("first call must prime a sample at t=0")
	}
	c.Add(10)
	if s.MaybeSample(500 * time.Millisecond) {
		t.Fatal("sampled inside the interval")
	}
	if !s.MaybeSample(time.Second) {
		t.Fatal("did not sample at the tick boundary")
	}
	c.Add(5)
	// A big virtual-time jump takes one snapshot at now, not backfill.
	if !s.MaybeSample(10 * time.Second) {
		t.Fatal("did not sample after multi-interval jump")
	}
	got := s.Series("jgre_tx_total")
	want := []Sample{{0, 0}, {time.Second, 10}, {10 * time.Second, 15}}
	if len(got) != len(want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if vals := s.Values("jgre_tx_total"); len(vals) != 3 || vals[2] != 15 {
		t.Fatalf("Values = %v", vals)
	}
}

func TestSamplerRingWrap(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("jgre_g", "g")
	s := NewSampler(r, time.Second, 3)
	s.Track("jgre_g", "jgre_late")
	for i := 0; i < 5; i++ {
		if i == 3 {
			// A series that registers mid-run evicts less; Dropped
			// reports the longest history's loss.
			r.Gauge("jgre_late", "late")
		}
		g.Set(float64(i))
		s.MaybeSample(time.Duration(i) * time.Second)
		if want := uint64(max(i-2, 0)); s.Dropped() != want {
			t.Fatalf("after %d samples Dropped = %d, want %d", i+1, s.Dropped(), want)
		}
	}
	got := s.Values("jgre_g")
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
}

func TestSamplerUnknownAndNaNSeries(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("jgre_nan", "nan", func() float64 { return math.NaN() })
	s := NewSampler(r, 0, 0) // defaults
	if s.Interval() != time.Second {
		t.Fatalf("default interval = %v", s.Interval())
	}
	s.Track("jgre_notyet", "jgre_nan")
	s.Track("jgre_notyet") // duplicate track is a no-op
	if got := s.Tracked(); len(got) != 2 {
		t.Fatalf("Tracked = %v", got)
	}
	s.MaybeSample(0)
	if got := s.Series("jgre_notyet"); len(got) != 0 {
		t.Fatalf("unknown series produced samples: %v", got)
	}
	if got := s.Series("jgre_nan"); len(got) != 0 {
		t.Fatalf("NaN samples recorded: %v", got)
	}
	if s.Series("jgre_untracked") != nil {
		t.Fatal("untracked series returned non-nil")
	}
	// The series registers later and starts sampling.
	r.Counter("jgre_notyet", "late").Add(4)
	s.MaybeSample(time.Second)
	if got := s.Values("jgre_notyet"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("late-registered series = %v", got)
	}
}

func TestRate(t *testing.T) {
	if Rate(nil) != nil || Rate([]Sample{{0, 1}}) != nil {
		t.Fatal("Rate of short series must be nil")
	}
	samples := []Sample{
		{0, 0},
		{time.Second, 10},
		{3 * time.Second, 30},
		{3 * time.Second, 99}, // zero dt → zero rate, not a divide
	}
	got := Rate(samples)
	want := []float64{10, 10, 0}
	if len(got) != len(want) {
		t.Fatalf("Rate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rate = %v, want %v", got, want)
		}
	}
}
