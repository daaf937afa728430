package defense

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// TestLMKCannotStopJGRE pins the paper's §VII point: the low memory
// killer watches memory, not JGR tables, so a memory-frugal JGRE attack
// sails straight past it and reboots the device — which is why the JGRE
// Defender exists.
func TestLMKCannotStopJGRE(t *testing.T) {
	dev, err := device.Boot(device.Config{Seed: 33, ServerVM: artCfg(3000)})
	if err != nil {
		t.Fatal(err)
	}
	evil, _ := dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000 && dev.SoftReboots() == 0; i++ {
		if err := atk.Step(); err != nil {
			break
		}
	}
	if dev.SoftReboots() != 1 {
		t.Fatal("attack did not reboot the undefended device")
	}
	if got := dev.Kernel().LMKKills(); got != 0 {
		t.Fatalf("LMK killed %d processes; it should never have triggered", got)
	}
}

// TestDefenderSurvivesProcfsLoss injects the failure the defender's
// evidence pipeline depends on: the procfs log vanishes before
// engagement. The hardened defender must exhaust its read retries, mark
// the read failed, and still recover via retained-ref fallback
// attribution — the driver's ground truth survives losing the log.
func TestDefenderSurvivesProcfsLoss(t *testing.T) {
	dev, err := device.Boot(device.Config{Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{AlarmThreshold: 300, EngageThreshold: 900})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: remove the evidence file.
	if err := dev.Kernel().ProcFS().Remove(binder.LogPath, kernel.RootUid); err != nil {
		t.Fatal(err)
	}
	evil, _ := dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000 && len(def.History()) == 0; i++ {
		if err := atk.Step(); err != nil {
			break
		}
	}
	hist := def.History()
	if len(hist) == 0 {
		t.Fatal("defender never engaged")
	}
	det := hist[0]
	if !det.ReadFailed || det.ReadRetries != DefaultLogReadRetries {
		t.Fatalf("read failure not surfaced: %+v", det)
	}
	if det.Records != 0 || len(det.Correlation) != 0 {
		t.Fatalf("correlation evidence appeared without a log: %+v", det)
	}
	if !det.FallbackUsed {
		t.Fatal("fallback attribution not engaged")
	}
	if len(det.Killed) != 1 || det.Killed[0] != "com.evil.app" {
		t.Fatalf("fallback killed %v, want the attacker", det.Killed)
	}
	if !det.Recovered {
		t.Fatal("defender failed to recover via fallback attribution")
	}
	if dev.SoftReboots() != 0 {
		t.Fatal("device rebooted despite fallback recovery")
	}
}

// TestDefenderHandlesRepeatEngagements: if the first engagement's kills
// do not end the pressure (a second attacker appears), the defender must
// engage again and clear it too.
func TestDefenderHandlesRepeatEngagements(t *testing.T) {
	dev, err := device.Boot(device.Config{Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{AlarmThreshold: 300, EngageThreshold: 900})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		evil, err := dev.Apps().Install("com.evil.app" + string(rune('a'+round)))
		if err != nil {
			t.Fatal(err)
		}
		atk, err := workload.NewAttacker(dev, evil, "audio.startWatchingRoutes")
		if err != nil {
			t.Fatal(err)
		}
		want := round + 1
		for i := 0; i < 20000 && len(def.History()) < want; i++ {
			if err := atk.Step(); err != nil {
				break
			}
		}
		hist := def.History()
		if len(hist) != want {
			t.Fatalf("round %d: %d detections, want %d", round, len(hist), want)
		}
		det := hist[want-1]
		if !det.Recovered || len(det.Killed) == 0 || det.Killed[0] != evil.Package() {
			t.Fatalf("round %d: detection = %+v", round, det)
		}
	}
	if dev.SoftReboots() != 0 {
		t.Fatal("device rebooted despite the defender")
	}
}

// TestScorePermutationInvariant: Algorithm 1's result is a pure
// function of the window's multiset of records, so the order records
// arrive in the log cannot change it — scores, per-type breakdowns and
// ranking alike. The streaming path re-groups rows through its
// permutation sort; several shuffles of a live detection window pin it.
func TestScorePermutationInvariant(t *testing.T) {
	r := newDefRig(t, smallCfg(), 4)
	evil, _ := r.dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(r.dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	cfgd := r.def
	cfgd.cfg.KeepRaw = true
	r.sched.Add(atk)
	r.sched.Run(func() bool { return len(cfgd.History()) > 0 }, 200000)
	hist := cfgd.History()
	if len(hist) == 0 || hist[0].RawWindow.Len() == 0 {
		t.Fatal("no raw window captured")
	}
	det := hist[0]

	base := cfgd.ScoreWithDelta(&det.RawWindow, det.RawAddTimes, DefaultDelta)
	if len(base) == 0 {
		t.Fatal("window scored no apps")
	}
	shuffled := det.RawWindow.Clone()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(shuffled.Len(), func(i, j int) { swapRows(&shuffled, i, j) })
		if got := cfgd.ScoreWithDelta(&shuffled, det.RawAddTimes, DefaultDelta); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: shuffled window changed the result:\nshuffled: %+v\n    base: %+v", trial, got, base)
		}
	}
}

// swapRows exchanges rows i and j across every column of w.
func swapRows(w *binder.LogColumns, i, j int) {
	w.Seq[i], w.Seq[j] = w.Seq[j], w.Seq[i]
	w.Time[i], w.Time[j] = w.Time[j], w.Time[i]
	w.FromPid[i], w.FromPid[j] = w.FromPid[j], w.FromPid[i]
	w.FromUid[i], w.FromUid[j] = w.FromUid[j], w.FromUid[i]
	w.ToPid[i], w.ToPid[j] = w.ToPid[j], w.ToPid[i]
	w.Handle[i], w.Handle[j] = w.Handle[j], w.Handle[i]
	w.Code[i], w.Code[j] = w.Code[j], w.Code[i]
	w.Size[i], w.Size[j] = w.Size[j], w.Size[i]
}

// headRows is the window's first n rows, sharing w's storage.
func headRows(w *binder.LogColumns, n int) *binder.LogColumns {
	return &binder.LogColumns{
		Seq: w.Seq[:n], Time: w.Time[:n], FromPid: w.FromPid[:n], FromUid: w.FromUid[:n],
		ToPid: w.ToPid[:n], Handle: w.Handle[:n], Code: w.Code[:n], Size: w.Size[:n],
	}
}

// TestScoreMonotoneInEvidence: extending the window with more of the
// attacker's (call, add) pairs never lowers its score.
func TestScoreMonotoneInEvidence(t *testing.T) {
	r := newDefRig(t, smallCfg(), 0)
	evil, _ := r.dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(r.dev, evil, "clipboard.addPrimaryClipChangedListener")
	if err != nil {
		t.Fatal(err)
	}
	r.def.cfg.KeepRaw = true
	sched := workload.NewScheduler(r.dev)
	sched.Add(atk)
	sched.Run(func() bool { return len(r.def.History()) > 0 }, 200000)
	hist := r.def.History()
	if len(hist) == 0 {
		t.Fatal("no detection")
	}
	det := hist[0]
	find := func(scores []AppScore) int64 {
		for _, s := range scores {
			if s.Package == "com.evil.app" {
				return s.Score
			}
		}
		return 0
	}
	prev := int64(0)
	for _, frac := range []int{4, 2, 1} {
		n := det.RawWindow.Len() / frac
		m := len(det.RawAddTimes) / frac
		score := find(r.def.ScoreWithDelta(headRows(&det.RawWindow, n), det.RawAddTimes[:m], DefaultDelta))
		if score < prev {
			t.Fatalf("score shrank with more evidence: %d then %d", prev, score)
		}
		prev = score
	}
	if prev == 0 {
		t.Fatal("attacker never scored")
	}
}

// TestQuickDeltaWideningNeverLowersScore: for any Δ' ≥ Δ, each candidate
// interval only widens, so the max-supported bucket cannot lose votes.
func TestQuickDeltaWideningNeverLowersScore(t *testing.T) {
	r := newDefRig(t, smallCfg(), 0)
	evil, _ := r.dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(r.dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	r.def.cfg.KeepRaw = true
	sched := workload.NewScheduler(r.dev)
	sched.Add(atk)
	sched.Run(func() bool { return len(r.def.History()) > 0 }, 200000)
	hist := r.def.History()
	if len(hist) == 0 {
		t.Fatal("no detection")
	}
	det := hist[0]
	find := func(scores []AppScore) int64 {
		for _, s := range scores {
			if s.Package == "com.evil.app" {
				return s.Score
			}
		}
		return 0
	}
	prev := int64(0)
	for _, delta := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond} {
		score := find(r.def.ScoreWithDelta(&det.RawWindow, det.RawAddTimes, delta))
		if score < prev {
			t.Fatalf("Δ=%v lowered score: %d then %d", delta, prev, score)
		}
		prev = score
	}
}
