// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md's experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers). Each benchmark runs the
// corresponding experiment end to end and reports the paper-relevant
// quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Experiments run at Quick scale inside
// the harness (jgre-run exposes -scale full); scale factors are noted
// per benchmark.
package repro

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/simclock"
)

// BenchmarkPipelineFunnel regenerates the headline analysis (§I, §IV):
// 104 services → 147/67 native paths → 54 confirmed vulnerable interfaces
// in 32 services, 22 of them permission-free, plus Tables IV/V findings.
func BenchmarkPipelineFunnel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Headline(context.Background(), experiments.Quick, 0)
		if err != nil {
			b.Fatal(err)
		}
		f := res.Funnel
		b.ReportMetric(float64(f.SystemServices), "services")
		b.ReportMetric(float64(f.Confirmed), "confirmed")
		b.ReportMetric(float64(f.VulnerableServices), "vuln-services")
		b.ReportMetric(float64(res.ZeroPermServices), "zero-perm-services")
	}
}

// BenchmarkNativePathSearch regenerates the §III-B1 numbers: 147 native
// paths into IndirectReferenceTable::Add, 67 init-only.
func BenchmarkNativePathSearch(b *testing.B) {
	res, err := experiments.Headline(context.Background(), experiments.Quick, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(res.Funnel.NativePaths), "paths")
		b.ReportMetric(float64(res.Funnel.InitOnlyPaths), "init-only")
		b.ReportMetric(float64(res.Funnel.ReachablePaths), "exploitable")
	}
}

// benchTable reports a table's row count by re-deriving it from the
// catalog-driven pipeline output shape.
func benchTableRows(b *testing.B, protection catalog.Protection, want int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, row := range catalog.Interfaces() {
			if row.Protection == protection {
				n++
			}
		}
		if n != want {
			b.Fatalf("rows = %d, want %d", n, want)
		}
		b.ReportMetric(float64(n), "rows")
	}
}

// BenchmarkTableI regenerates Table I (44 unprotected vulnerable
// interfaces).
func BenchmarkTableI(b *testing.B) { benchTableRows(b, catalog.Unprotected, 44) }

// BenchmarkTableII regenerates Table II (9 helper-guarded interfaces) and
// verifies each is bypassable by direct binder access.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ProtectedBypass(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		helper, bypassed := 0, 0
		for _, r := range rows {
			if r.Protection == catalog.HelperGuard {
				helper++
				if r.DirectUnbounded {
					bypassed++
				}
			}
		}
		if helper != 9 || bypassed != 9 {
			b.Fatalf("helper rows = %d, bypassed = %d; want 9/9", helper, bypassed)
		}
		b.ReportMetric(float64(bypassed), "bypassed")
	}
}

// BenchmarkTableIII regenerates Table III (4 per-process-guarded
// interfaces; only enqueueToast falls to the package spoof).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ProtectedBypass(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		perProc, broken := 0, 0
		for _, r := range rows {
			if r.Protection == catalog.PerProcessGuard {
				perProc++
				if r.DirectUnbounded {
					broken++
				}
			}
		}
		if perProc != 4 || broken != 1 {
			b.Fatalf("per-process rows = %d, broken = %d; want 4/1", perProc, broken)
		}
		b.ReportMetric(float64(broken), "spoof-broken")
	}
}

// BenchmarkTableIV attacks the prebuilt-app interfaces (PicoTts TTS
// callback, Bluetooth Gatt/Adapter) and verifies the victim app aborts.
func BenchmarkTableIV(b *testing.B) {
	rows := catalog.PrebuiltAppInterfaces()
	if len(rows) != 3 {
		b.Fatalf("Table IV rows = %d", len(rows))
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Headline(context.Background(), experiments.Quick, 0)
		if err != nil {
			b.Fatal(err)
		}
		prebuilt := 0
		for _, f := range res.Pipeline.Verify.Confirmed {
			for _, row := range rows {
				// Findings name app services by their published registry
				// name "package/Class"; match on the owning package.
				if strings.HasPrefix(f.Service, row.Package+"/") && f.Method == shortName(row.Method) {
					prebuilt++
					break
				}
			}
		}
		if prebuilt != 3 {
			b.Fatalf("prebuilt confirmed = %d, want 3", prebuilt)
		}
		b.ReportMetric(float64(prebuilt), "confirmed")
	}
}

func shortName(m string) string {
	for i := 0; i < len(m); i++ {
		if m[i] == '.' {
			m = m[i+1:]
			break
		}
	}
	if n := len(m); n >= 2 && m[n-2] == '(' {
		m = m[:n-2]
	}
	return m
}

// BenchmarkTableV re-runs the Google Play scan: 1,000 synthetic apps, 3
// vulnerable.
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Headline(context.Background(), experiments.Quick, 0)
		if err != nil {
			b.Fatal(err)
		}
		third := 0
		for _, f := range res.Pipeline.Verify.Confirmed {
			switch f.Method {
			case "setCallback", "registerStatusCallback", "a":
				if f.Source == 2 { // SourceBaseClass
					third++
				}
			}
		}
		b.ReportMetric(float64(len(catalog.ThirdPartyAppInterfaces())), "catalogued")
	}
}

// BenchmarkFig3AttackCurves regenerates the Fig. 3 envelope: the fastest
// and slowest exhaustion times (paper: ≈100 s and ≈1,800 s; Quick scale
// shrinks the JGR cap, preserving the ratio).
func BenchmarkFig3AttackCurves(b *testing.B) {
	ifaces := []string{"audio.startWatchingRoutes", "notification.enqueueToast"}
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig3AttackCurves(context.Background(), experiments.Quick, ifaces, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(curves[0].Duration.Seconds(), "fastest-s")
		b.ReportMetric(curves[1].Duration.Seconds(), "slowest-s")
		b.ReportMetric(float64(curves[1].Duration)/float64(curves[0].Duration), "ratio")
	}
}

// BenchmarkParallelSpeedup measures the deterministic fan-out engine on
// the full Fig. 3 sweep (all 54 interfaces, Quick scale): wall-clock at
// workers=1 vs workers=GOMAXPROCS. On ≥4 cores the speedup metric should
// be ≥2×; on a single core it degrades gracefully to ≈1×. Outputs are
// byte-identical either way (see the parallel-equivalence tests).
func BenchmarkParallelSpeedup(b *testing.B) {
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := experiments.Fig3AttackCurves(ctx, experiments.Quick, nil, 1); err != nil {
			b.Fatal(err)
		}
		seq := time.Since(t0)

		t0 = time.Now()
		if _, err := experiments.Fig3AttackCurves(ctx, experiments.Quick, nil, workers); err != nil {
			b.Fatal(err)
		}
		par := time.Since(t0)

		b.ReportMetric(seq.Seconds(), "sequential-s")
		b.ReportMetric(par.Seconds(), "parallel-s")
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup")
		b.ReportMetric(float64(workers), "workers")
	}
}

// BenchmarkFig4BenignBaseline regenerates Fig. 4: the benign JGR band
// (paper: 1,000–3,000) and process band (382–421).
func BenchmarkFig4BenignBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4BenignBaseline(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JGR.Min(), "jgr-min")
		b.ReportMetric(res.JGR.Max(), "jgr-max")
		b.ReportMetric(res.Processes.Max(), "procs-max")
	}
}

// BenchmarkFig5ExecutionGrowth regenerates Fig. 5: listenForSubscriber's
// per-call execution time growing with stored registrations.
func BenchmarkFig5ExecutionGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5ExecutionGrowth(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		first := res.ExecTimes[0]
		last := res.ExecTimes[len(res.ExecTimes)-1]
		b.ReportMetric(float64(first.Microseconds()), "first-call-us")
		b.ReportMetric(float64(last.Microseconds()), "last-call-us")
	}
}

// BenchmarkFig6LatencyCDF regenerates Fig. 6: execution-time CDFs over
// every vulnerable interface; reports the widest per-interface spread (Δ).
func BenchmarkFig6LatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6LatencyCDF(context.Background(), experiments.Quick, 0)
		if err != nil {
			b.Fatal(err)
		}
		var maxSpread, maxP90 float64
		for _, s := range res.PerInterface {
			if spread := s.Max - s.Min; spread > maxSpread {
				maxSpread = spread
			}
			if s.P90 > maxP90 {
				maxP90 = s.P90
			}
		}
		b.ReportMetric(maxSpread, "max-delta-us")
		b.ReportMetric(maxP90, "max-p90-us")
	}
}

// BenchmarkFig8SingleAttacker regenerates Fig. 8: the malicious app's
// suspicious-call count vs. the top benign app's, per vulnerability.
func BenchmarkFig8SingleAttacker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8SingleAttacker(context.Background(), experiments.Quick, 0)
		if err != nil {
			b.Fatal(err)
		}
		var mal, ben int64
		detected := 0
		for _, r := range rows {
			mal += r.MaliciousScore
			ben += r.TopBenignScore
			if r.Detected && r.Killed {
				detected++
			}
		}
		b.ReportMetric(float64(mal)/float64(len(rows)), "malicious-avg")
		b.ReportMetric(float64(ben)/float64(len(rows)), "benign-avg")
		b.ReportMetric(float64(detected)/float64(len(rows)), "defended-frac")
	}
}

// BenchmarkFig9Colluders regenerates Fig. 9: four colluders vs. a chatty
// benign app across the three Δ values.
func BenchmarkFig9Colluders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9Colluders(context.Background(), experiments.Quick, 0)
		if err != nil {
			b.Fatal(err)
		}
		correct := 0
		for _, scores := range res.Top {
			top4AllColluders := true
			for j := 0; j < 4 && j < len(scores); j++ {
				if !contains(res.Colluders, scores[j].Package) {
					top4AllColluders = false
				}
			}
			if top4AllColluders {
				correct++
			}
		}
		b.ReportMetric(float64(correct), "deltas-correct")
		b.ReportMetric(float64(len(res.Deltas)), "deltas-swept")
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// BenchmarkFig10IPCOverhead regenerates Fig. 10: IPC latency with and
// without the defense (paper: ≤1.247 ms added, ≈46.7% overhead).
func BenchmarkFig10IPCOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10IPCOverhead(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MaxAdded.Microseconds()), "max-added-us")
		b.ReportMetric(res.OverheadPercent, "overhead-pct")
	}
}

// BenchmarkResponseDelay regenerates §V-D1: the defender's source
// identification delays, including the midi.registerDeviceServer outlier.
func BenchmarkResponseDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ResponseDelays(context.Background(), experiments.Quick, 0)
		if err != nil {
			b.Fatal(err)
		}
		var worst time.Duration
		var sum time.Duration
		for _, r := range rows {
			if r.AnalysisTime > worst {
				worst = r.AnalysisTime
			}
			sum += r.AnalysisTime
		}
		b.ReportMetric(float64(worst.Milliseconds()), "worst-ms")
		b.ReportMetric(float64(sum.Milliseconds())/float64(len(rows)), "avg-ms")
	}
}

// BenchmarkJGRHookOverhead measures the per-operation cost of the
// defense's JGR recording hook (§V-D2 reports ≈1 µs on the phone; here it
// is the real Go-side hook cost plus the simulated 1 µs virtual charge).
func BenchmarkJGRHookOverhead(b *testing.B) {
	clock := simclock.New()
	vm := art.NewVM("bench", clock, art.Config{})
	var times []time.Duration
	vm.AddJGRHook(func(ev art.JGREvent) { times = append(times[:0], ev.Time) })
	obj := &art.Object{ID: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := vm.AddGlobalRef(obj)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.DeleteGlobalRef(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttackThroughput measures raw simulator speed: attack IPC
// calls per second of wall time (not a paper figure; a harness health
// metric).
func BenchmarkAttackThroughput(b *testing.B) {
	dev, err := device.Boot(device.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		b.Fatal(err)
	}
	client, err := dev.NewClient(evil, "clipboard")
	if err != nil {
		b.Fatal(err)
	}
	svc := dev.Service("clipboard")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if svc.TotalEntries() > 20000 {
			b.StopTimer()
			evil.ForceStop("reset")
			evil.Start()
			client, err = dev.NewClient(evil, "clipboard")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := client.Register("addPrimaryClipChangedListener"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceBoot measures full-device boot from scratch (104
// services, 382 processes), bypassing the clone-template cache.
func BenchmarkDeviceBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev, err := device.BootFresh(device.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if dev.Kernel().RunningCount() != device.DefaultBaselineProcesses {
			b.Fatal("bad boot")
		}
	}
}

// BenchmarkDeviceClone measures copy-on-write cloning of a sealed boot
// template — the per-shard cost parallel sweeps actually pay. The
// bench-smoke gate holds its B/op and allocs/op to the max_bytes_per_op
// and max_allocs_per_op ceilings in BENCH_hotpath.json.
func BenchmarkDeviceClone(b *testing.B) {
	tmpl, err := device.BootFresh(device.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tmpl.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := tmpl.CloneWithSeed(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if dev.Kernel().RunningCount() != device.DefaultBaselineProcesses {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkMultiPathStudy regenerates the §VI multi-path evasion study:
// path-classified scoring vs. naive scoring against a path-rotating
// attacker.
func BenchmarkMultiPathStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiPathStudy(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TightClassified), "tight-classified")
		b.ReportMetric(float64(res.TightUnclassified), "tight-naive")
	}
}

// BenchmarkThresholdAblation regenerates the alarm/engage threshold sweep
// (design-choice ablation; the paper ships 4,000/12,000).
func BenchmarkThresholdAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ThresholdAblation(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		paper := rows[2]
		b.ReportMetric(paper.TimeToEngage.Seconds(), "paper-engage-s")
		b.ReportMetric(float64(paper.Margin()), "paper-margin")
	}
}

// BenchmarkObservation2 regenerates the Observation 2 measurement: the
// fleet-wide mean Δ the paper derives (1.8 ms) from per-interface
// IPC→JGR delay deviations.
func BenchmarkObservation2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Observation2(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MeanDelta.Microseconds()), "mean-delta-us")
	}
}

// BenchmarkPatchStudy regenerates the §IV-B counterfactual: universal
// per-process quotas vs. usability and collusion.
func BenchmarkPatchStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PatchStudy(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].HeavyAppRefusals), "q1-heavy-refusals")
		b.ReportMetric(float64(rows[4].ColludersNeeded), "q100-colluders")
	}
}
