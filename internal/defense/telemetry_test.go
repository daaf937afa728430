package defense

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runDefendedAttack drives one attack to its first engagement and
// returns the rig for telemetry assertions.
func runDefendedAttack(t *testing.T) *defRig {
	t.Helper()
	r := newDefRig(t, smallCfg(), 10)
	evil, err := r.dev.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := workload.NewAttacker(r.dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	r.sched.Add(atk)
	r.sched.Run(func() bool { return len(r.def.History()) > 0 }, 200000)
	if len(r.def.History()) == 0 {
		t.Fatal("defender never engaged")
	}
	return r
}

// runTracedDefendedAttack boots a traced, defended device, attacks it
// until the attacker dies and calls onDetection from the defender's
// OnDetection hook after each engagement. It fails the test unless
// every engagement reached the hook.
func runTracedDefendedAttack(t *testing.T, onDetection func(dev *device.Device, det Detection)) {
	t.Helper()
	dev, err := device.Boot(device.Config{Seed: 7, Trace: trace.Config{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	sched := workload.NewScheduler(dev)
	if _, err := workload.Population(dev, sched, 10, 7, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := workload.NewAttacker(dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	sched.Add(atk)
	checked := 0
	def.OnDetection = func(det Detection) {
		onDetection(dev, det)
		checked++
	}
	sched.Run(func() bool { return !evil.Running() }, 200000)
	if checked == 0 || checked != len(def.History()) {
		t.Fatalf("checked %d engagements, defender made %d", checked, len(def.History()))
	}
}

// TestEngagementEmitsSpan: on a traced device each engagement records
// its poll window once in the flight recorder, as one defender.window
// span starting at the engagement with its score and decision spans
// as children.
func TestEngagementEmitsSpan(t *testing.T) {
	windows := 0
	runTracedDefendedAttack(t, func(dev *device.Device, det Detection) {
		spans := dev.Recorder().Spans()
		n := 0
		for i := range spans {
			if spans[i].Kind == trace.SpanDefenderWindow {
				n++
			}
		}
		if dev.Recorder().Dropped() == 0 && n != windows+1 {
			t.Fatalf("engagement at %v: %d defender.window spans, want %d", det.EngagedAt, n, windows+1)
		}
		windows++
		if len(spans) < 3 {
			t.Fatalf("engagement at %v: recorder holds %d spans, want the window, score and decision", det.EngagedAt, len(spans))
		}
		win, score, decision := spans[len(spans)-3], spans[len(spans)-2], spans[len(spans)-1]
		if win.Kind != trace.SpanDefenderWindow || score.Kind != trace.SpanScore || decision.Kind != trace.SpanDecision {
			t.Fatalf("engagement at %v: last spans are %v, %v, %v, want defender.window, score, decision",
				det.EngagedAt, win.Kind, score.Kind, decision.Kind)
		}
		if win.Start != det.EngagedAt || win.End < win.Start {
			t.Fatalf("engagement at %v: window span [%v, %v]", det.EngagedAt, win.Start, win.End)
		}
		if win.Val != int64(det.Records) || decision.Val != int64(len(det.Killed)) {
			t.Fatalf("engagement at %v: window records %d (want %d), decision kills %d (want %d)",
				det.EngagedAt, win.Val, det.Records, decision.Val, len(det.Killed))
		}
		for _, child := range []trace.SpanRecord{score, decision} {
			if child.Trace != win.Trace || child.Parent != win.ID || child.Start < win.Start || child.End > win.End {
				t.Fatalf("engagement at %v: %v span %+v is not a child of window %+v", det.EngagedAt, child.Kind, child, win)
			}
		}
	})
}

// TestSpanPhasesSumToDuration: each engagement adds one observation to
// each of the four jgre_defender_phase_seconds histograms, and the four
// sums grow by the extent of that engagement's defender.window span.
func TestSpanPhasesSumToDuration(t *testing.T) {
	var lastCount uint64
	var lastSum float64
	runTracedDefendedAttack(t, func(dev *device.Device, det Detection) {
		var sum float64
		for _, name := range []string{"read", "correlate", "score", "decide"} {
			h := dev.Metrics().Histogram(`jgre_defender_phase_seconds{phase="`+name+`"}`, "", nil)
			if h.Count() != lastCount+1 {
				t.Fatalf("engagement at %v: %s histogram count %d, want %d", det.EngagedAt, name, h.Count(), lastCount+1)
			}
			sum += h.Sum()
		}
		var win *trace.SpanRecord
		spans := dev.Recorder().Spans()
		for i := range spans {
			if spans[i].Kind == trace.SpanDefenderWindow {
				win = &spans[i]
			}
		}
		if win == nil || win.Start != det.EngagedAt {
			t.Fatalf("engagement at %v: no defender.window span for it (last %+v)", det.EngagedAt, win)
		}
		if got, want := sum-lastSum, (win.End - win.Start).Seconds(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("engagement at %v: phase sums grew %.12fs, window span is %.12fs", det.EngagedAt, got, want)
		}
		lastCount, lastSum = lastCount+1, sum
	})
}

func TestEngagementMetrics(t *testing.T) {
	r := runDefendedAttack(t)
	reg := r.dev.Metrics()
	det := r.def.History()[0]

	if v, ok := reg.Value("jgre_defender_engagements_total"); !ok || v < 1 {
		t.Fatalf("engagements_total = %v (ok=%v), want >= 1", v, ok)
	}
	if v, _ := reg.Value("jgre_defender_kills_total"); v != float64(len(det.Killed)) {
		t.Fatalf("kills_total = %v, want %d", v, len(det.Killed))
	}
	if v, _ := reg.Value("jgre_defender_coverage"); v != det.Coverage {
		t.Fatalf("coverage gauge = %v, want %v", v, det.Coverage)
	}
	// The four phase histograms saw exactly one observation per
	// engagement.
	for _, phase := range []string{"read", "correlate", "score", "decide"} {
		name := `jgre_defender_phase_seconds{phase="` + phase + `"}`
		if v, ok := reg.Value(name); !ok || v != float64(len(r.def.History())) {
			t.Fatalf("%s count = %v (ok=%v), want %d", name, v, ok, len(r.def.History()))
		}
	}
}

func TestCorrelatorMetrics(t *testing.T) {
	r := runDefendedAttack(t)
	reg := r.dev.Metrics()

	scored, ok := reg.Value("jgre_defender_correlator_types_scored_total")
	if !ok || scored < 1 {
		t.Fatalf("types_scored_total = %v (ok=%v), want >= 1 after an engagement", scored, ok)
	}
	for _, name := range []string{
		"jgre_defender_correlator_types_skipped_total",
		"jgre_defender_correlator_span_shortcuts_total",
		"jgre_defender_correlator_bucket_pairs_total",
	} {
		if _, ok := reg.Value(name); !ok {
			t.Fatalf("registry missing %s", name)
		}
	}
	// Every type either early-exits before bucketing or sweeps pairs;
	// an engagement that scored something must have done one or the other.
	shortcuts, _ := reg.Value("jgre_defender_correlator_span_shortcuts_total")
	pairs, _ := reg.Value("jgre_defender_correlator_bucket_pairs_total")
	if shortcuts == 0 && pairs == 0 {
		t.Fatal("correlator scored types but recorded neither a span shortcut nor swept pairs")
	}
}

func TestDefenderHealthInStats(t *testing.T) {
	r := runDefendedAttack(t)
	det := r.def.History()[len(r.def.History())-1]

	s := r.dev.Stats()
	if s.Defender == nil {
		t.Fatal("Stats.Defender = nil with a defender attached")
	}
	if s.Defender.Detections != len(r.def.History()) {
		t.Fatalf("Detections = %d, want %d", s.Defender.Detections, len(r.def.History()))
	}
	if s.Defender.Coverage != det.Coverage {
		t.Fatalf("Coverage = %v, want %v", s.Defender.Coverage, det.Coverage)
	}
	if s.Defender.FallbackUsed != det.FallbackUsed {
		t.Fatalf("FallbackUsed = %v, want %v", s.Defender.FallbackUsed, det.FallbackUsed)
	}

	var b strings.Builder
	r.dev.DumpState(&b)
	if !strings.Contains(b.String(), "defender:") {
		t.Fatal("DumpState missing defender health line")
	}
}

func TestMetricsProcFileDuringAttack(t *testing.T) {
	r := runDefendedAttack(t)
	fs := r.dev.Kernel().ProcFS()

	out, err := fs.Read("/proc/jgre_metrics", kernel.RootUid)
	if err != nil {
		t.Fatalf("root read: %v", err)
	}
	text := string(out)
	for _, want := range []string{
		"# TYPE jgre_defender_engagements_total counter",
		"jgre_defender_attached 1",
		"jgre_defender_correlator_types_scored_total",
		"jgre_defender_correlator_bucket_pairs_total",
		`jgre_jgr_table_size{process="system_server"}`,
		"jgre_binder_tx_bytes_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/proc/jgre_metrics missing %q", want)
		}
	}
	if _, err := fs.Read("/proc/jgre_metrics", kernel.FirstAppUid); err == nil {
		t.Fatal("app uid could read /proc/jgre_metrics; want ACL denial")
	}
}
