package defense

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/kernel"
)

// correlatorWindows builds several distinct evidence windows against one
// device: different apps, interfaces and interleavings per window, so the
// persistent correlator's bucket reuse is exercised across key sets that
// appear, vanish and return.
func correlatorWindows(t *testing.T) (*Defender, []binder.LogColumns, [][]time.Duration) {
	t.Helper()
	dev, err := device.Boot(device.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{AlarmThreshold: 1 << 20, EngageThreshold: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	var adds []time.Duration
	dev.SystemServer().VM().AddJGRHook(func(ev art.JGREvent) {
		if ev.Op == art.OpAdd {
			adds = append(adds, ev.Time)
		}
	})
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	benign, err := dev.Apps().Install("com.benign.chat")
	if err != nil {
		t.Fatal(err)
	}
	clipEvil, err := dev.NewClient(evil, "clipboard")
	if err != nil {
		t.Fatal(err)
	}
	clipBenign, err := dev.NewClient(benign, "clipboard")
	if err != nil {
		t.Fatal(err)
	}
	audioEvil, err := dev.NewClient(evil, "audio")
	if err != nil {
		t.Fatal(err)
	}

	victim := dev.SystemServer().Pid()
	var windows []binder.LogColumns
	var addWindows [][]time.Duration

	capture := func(gen func()) {
		adds = adds[:0]
		gen()
		if _, err := dev.Driver().FlushLog(); err != nil {
			t.Fatal(err)
		}
		var w binder.LogColumns
		if _, err := dev.Driver().AppendLogColumnsSince(kernel.SystemUid, victim, 0, &w); err != nil {
			t.Fatal(err)
		}
		w.Filter(func(i int) bool { return kernel.IsAppUid(w.FromUid[i]) })
		if w.Len() == 0 || len(adds) == 0 {
			t.Fatal("window generated no evidence")
		}
		windows = append(windows, w)
		addWindows = append(addWindows, append([]time.Duration(nil), adds...))
		if err := dev.Driver().TruncateLog(); err != nil {
			t.Fatal(err)
		}
	}

	// Window 1: clipboard flood from the attacker, light benign traffic.
	capture(func() {
		for i := 0; i < 300; i++ {
			if err := clipEvil.Register("addPrimaryClipChangedListener"); err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				if err := clipBenign.Register("addPrimaryClipChangedListener"); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	// Window 2: a different interface entirely (stale clipboard buckets
	// must not leak into its scores).
	capture(func() {
		for i := 0; i < 200; i++ {
			if err := audioEvil.Register("registerRemoteController"); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Window 3: the clipboard keys return, interleaved with audio.
	capture(func() {
		for i := 0; i < 150; i++ {
			if err := clipEvil.Register("addPrimaryClipChangedListener"); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := audioEvil.Register("registerRemoteController"); err != nil {
					t.Fatal(err)
				}
			}
			if i%7 == 0 {
				if err := clipBenign.Register("addPrimaryClipChangedListener"); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	return def, windows, addWindows
}

// TestIncrementalCorrelatorMatchesStateless is the equivalence contract
// behind the poll-path optimization: a persistent correlator fed a
// sequence of windows, and ScoreWithDelta scoring on whatever storage
// the engagement store lends it, must each produce, for every window,
// exactly the ranking a fresh zero-value correlator produces for that
// window alone — same scores, same per-type breakdowns, same order.
func TestIncrementalCorrelatorMatchesStateless(t *testing.T) {
	def, windows, addWindows := correlatorWindows(t)
	var persistent correlator
	for round := range windows {
		var fresh correlator
		want := fresh.score(def, &windows[round], addWindows[round], DefaultDelta)
		got := persistent.score(def, &windows[round], addWindows[round], DefaultDelta)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d diverged:\nincremental: %+v\n      fresh: %+v", round, got, want)
		}
		if borrowed := def.ScoreWithDelta(&windows[round], addWindows[round], DefaultDelta); !reflect.DeepEqual(borrowed, want) {
			t.Fatalf("window %d diverged:\n   borrowed: %+v\n      fresh: %+v", round, borrowed, want)
		}
		if len(got) == 0 {
			t.Fatalf("window %d produced no scores", round)
		}
	}
}

// TestIncrementalCorrelatorRepeatable runs the same window through the
// same persistent correlator twice in a row; bucket reuse must be
// idempotent.
func TestIncrementalCorrelatorRepeatable(t *testing.T) {
	def, windows, addWindows := correlatorWindows(t)
	var c correlator
	first := c.score(def, &windows[0], addWindows[0], DefaultDelta)
	second := c.score(def, &windows[0], addWindows[0], DefaultDelta)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("rescoring the same window diverged:\n first: %+v\nsecond: %+v", first, second)
	}
}

// TestScoreWithDeltaConcurrentSafe pins what the Fig. 9 sweep depends
// on: concurrent ScoreWithDelta calls over one shared window must agree
// with the sequential result. Run under `make race` this also proves
// the engagement store lends each concurrent call its own scratch and
// the scorers only read the window.
func TestScoreWithDeltaConcurrentSafe(t *testing.T) {
	def, windows, addWindows := correlatorWindows(t)
	want := def.ScoreWithDelta(&windows[0], addWindows[0], DefaultDelta)
	results := make([][]AppScore, 8)
	done := make(chan int, len(results))
	for g := range results {
		go func(g int) {
			results[g] = def.ScoreWithDelta(&windows[0], addWindows[0], DefaultDelta)
			done <- g
		}(g)
	}
	for range results {
		<-done
	}
	for g, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("goroutine %d diverged from sequential result", g)
		}
	}
}
