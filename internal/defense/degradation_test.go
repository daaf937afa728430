package defense

import (
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// faultedRig boots a device with a telemetry fault model, a defender,
// and one attacker; it drives the attack until the first engagement.
func faultedEngagement(t *testing.T, fcfg faults.Config, dcfg Config) (Detection, *device.Device) {
	t.Helper()
	dev, err := device.Boot(device.Config{Seed: 51, Faults: fcfg})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	evil, _ := dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000 && len(def.History()) == 0; i++ {
		if err := atk.Step(); err != nil {
			break
		}
	}
	hist := def.History()
	if len(hist) == 0 {
		t.Fatal("defender never engaged")
	}
	return hist[0], dev
}

func TestDefenderUnderRecordDropsFallsBack(t *testing.T) {
	det, _ := faultedEngagement(t, faults.Config{DropRate: 0.7}, smallCfg())
	if det.Coverage >= DefaultMinCoverage {
		t.Fatalf("coverage %.2f not below the fallback threshold", det.Coverage)
	}
	if det.DroppedRecords == 0 {
		t.Fatal("no dropped records accounted")
	}
	if !det.FallbackUsed {
		t.Fatal("fallback not engaged below MinCoverage")
	}
	if len(det.Killed) == 0 || det.Killed[0] != "com.evil.app" {
		t.Fatalf("killed = %v, want attacker first", det.Killed)
	}
	if !det.Recovered {
		t.Fatal("victim did not recover under drops")
	}
}

func TestDefenderUnderModerateDropsStaysOnCorrelation(t *testing.T) {
	det, _ := faultedEngagement(t, faults.Config{DropRate: 0.3}, smallCfg())
	if det.FallbackUsed {
		t.Fatalf("fallback engaged at coverage %.2f >= %.2f", det.Coverage, DefaultMinCoverage)
	}
	if det.Coverage >= 1 || det.Coverage < DefaultMinCoverage {
		t.Fatalf("coverage %.2f implausible for drop rate 0.3", det.Coverage)
	}
	if len(det.Scores) == 0 || det.Scores[0].Package != "com.evil.app" {
		t.Fatalf("correlation lost the attacker: %+v", det.Scores)
	}
	if !det.Recovered {
		t.Fatal("victim did not recover")
	}
}

func TestDefenderRetriesInjectedReadFailure(t *testing.T) {
	det, _ := faultedEngagement(t, faults.Config{ReadFailEvery: 2}, smallCfg())
	if det.ReadRetries != 1 || det.ReadFailed {
		t.Fatalf("expected one retry then success, got %+v", det)
	}
	if det.Records == 0 {
		t.Fatal("retried read returned no records")
	}
	if !det.Recovered {
		t.Fatal("victim did not recover after retried read")
	}
}

func TestDefenderRestartsFailedAnalysis(t *testing.T) {
	det, _ := faultedEngagement(t, faults.Config{AnalysisFailEvery: 2}, smallCfg())
	if det.AnalysisRestarts != 1 {
		t.Fatalf("AnalysisRestarts = %d, want 1", det.AnalysisRestarts)
	}
	if det.FallbackUsed {
		t.Fatal("fallback engaged although the restart succeeded")
	}
	if len(det.Scores) == 0 || det.Scores[0].Package != "com.evil.app" || !det.Recovered {
		t.Fatalf("restarted analysis failed to convict: %+v", det)
	}
}

func TestDefenderPersistentAnalysisFailureFallsBack(t *testing.T) {
	det, _ := faultedEngagement(t, faults.Config{AnalysisFailEvery: 1}, smallCfg())
	if det.AnalysisRestarts != maxAnalysisRestarts+1 {
		t.Fatalf("AnalysisRestarts = %d, want %d", det.AnalysisRestarts, maxAnalysisRestarts+1)
	}
	if !det.FallbackUsed {
		t.Fatal("fallback not engaged after persistent analysis failure")
	}
	if len(det.Killed) == 0 || det.Killed[0] != "com.evil.app" || !det.Recovered {
		t.Fatalf("fallback failed to convict: %+v", det)
	}
}

func TestAdaptiveDeltaWidensUnderJitter(t *testing.T) {
	fcfg := faults.Config{MaxJitter: 5 * time.Millisecond}
	det, _ := faultedEngagement(t, fcfg, smallCfg())
	if det.EffectiveDelta <= DefaultDelta {
		t.Fatalf("EffectiveDelta %v not widened under %v jitter", det.EffectiveDelta, fcfg.MaxJitter)
	}
	if det.EffectiveDelta > DefaultMaxDelay {
		t.Fatalf("EffectiveDelta %v exceeds MaxDelay", det.EffectiveDelta)
	}
	if len(det.Scores) == 0 || det.Scores[0].Package != "com.evil.app" || !det.Recovered {
		t.Fatalf("jittered engagement failed: %+v", det)
	}
}

func TestClockSkewIsCorrected(t *testing.T) {
	det, _ := faultedEngagement(t, faults.Config{ClockSkew: 50 * time.Millisecond}, smallCfg())
	if len(det.Scores) == 0 || det.Scores[0].Package != "com.evil.app" {
		t.Fatalf("skewed timestamps lost the attacker: %+v", det.Scores)
	}
	if !det.Recovered {
		t.Fatal("victim did not recover under clock skew")
	}
}

// guardScenario boots a device where the evidence log is sabotaged (so
// ranking comes from retained-ref fallback attribution, whose counts are
// ground truth), one heavy attacker pins ~5000 refs and three weak apps
// pin ~200 each — an order of magnitude under the top, i.e. exactly the
// low-confidence band the innocent-kill guard polices.
func guardScenario(t *testing.T, budget int) (Detection, *device.Device) {
	t.Helper()
	dev, err := device.Boot(device.Config{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{AlarmThreshold: 300, EngageThreshold: 5500, InnocentKillBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Kernel().ProcFS().Remove(binder.LogPath, kernel.RootUid); err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"com.weak.a", "com.weak.b", "com.weak.c"} {
		app, _ := dev.Apps().Install(pkg)
		atk, err := workload.NewAttacker(dev, app, "audio.startWatchingRoutes")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := atk.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heavy, _ := dev.Apps().Install("com.heavy.app")
	atk, err := workload.NewAttacker(dev, heavy, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000 && len(def.History()) == 0; i++ {
		if err := atk.Step(); err != nil {
			break
		}
	}
	hist := def.History()
	if len(hist) == 0 {
		t.Fatal("defender never engaged")
	}
	return hist[0], dev
}

// TestInnocentKillGuard: with budget 1, the guard allows the top
// candidate plus one low-confidence kill, then stops and records the
// skips, leaving recovery incomplete rather than massacring bystanders.
func TestInnocentKillGuard(t *testing.T) {
	det, dev := guardScenario(t, 1)
	if !det.FallbackUsed {
		t.Fatal("expected fallback attribution ranking")
	}
	if len(det.Scores) < 4 || det.Scores[0].Package != "com.heavy.app" {
		t.Fatalf("scores = %+v, want heavy attacker on top of 4", det.Scores)
	}
	if len(det.Killed) != 2 || det.Killed[0] != "com.heavy.app" {
		t.Fatalf("killed = %v, want heavy attacker plus one weak app", det.Killed)
	}
	if det.GuardStops != 2 {
		t.Fatalf("GuardStops = %d, want 2 (remaining weak apps spared)", det.GuardStops)
	}
	if det.Recovered {
		t.Fatal("recovery should be incomplete with the guard holding")
	}
	alive := 0
	for _, pkg := range []string{"com.weak.a", "com.weak.b", "com.weak.c"} {
		if dev.Apps().ByPackage(pkg).Running() {
			alive++
		}
	}
	if alive != 2 {
		t.Fatalf("%d weak apps alive, want 2 spared by the guard", alive)
	}
}

// TestInnocentKillGuardUnbounded pins the paper's default (budget 0 =
// guard off): everything in the ranking dies.
func TestInnocentKillGuardUnbounded(t *testing.T) {
	det, _ := guardScenario(t, 0)
	if det.GuardStops != 0 || len(det.Killed) != 4 || !det.Recovered {
		t.Fatalf("unbounded budget detection killed %v (guard stops %d, recovered %v), want all 4",
			det.Killed, det.GuardStops, det.Recovered)
	}
}
