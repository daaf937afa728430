// Package experiments implements one entry point per table and figure of
// the paper's evaluation, on top of the device simulation, the analysis
// pipeline and the defense. jgre-run prints their outputs and
// bench_test.go regenerates each one.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/art"
	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// Scale tunes experiment sizes: Full reproduces the paper's parameters on
// virtual time; Quick shrinks them for tests and benchmarks while
// preserving every qualitative result.
type Scale int

// Available scales.
const (
	Quick Scale = iota
	Full
)

// jgrCap returns the victim JGR capacity for attack experiments.
func (s Scale) jgrCap() int {
	if s == Full {
		return 0 // art.MaxGlobalRefs
	}
	return 6000
}

// HeadlineResult carries the paper's §IV summary, regenerated by the
// pipeline.
type HeadlineResult struct {
	Pipeline *analysis.PipelineResult
	Funnel   analysis.Funnel
	// ZeroPermServices counts services attackable without permissions.
	ZeroPermServices int
}

// Headline runs the full four-step pipeline (static over the synthesized
// corpus, dynamic against a booted device) and summarizes the paper's
// headline numbers (§I, §IV). The dynamic stage verifies each candidate on
// its own device across workers pool goroutines (0 = one per CPU, 1 =
// sequential); the result is identical for any worker count.
func Headline(ctx context.Context, scale Scale, workers int) (*HeadlineResult, error) {
	apps := catalog.ThirdPartyScanCount
	calls := 120
	if scale == Full {
		calls = 1000
	}
	c := corpus.Generate(corpus.Options{ThirdPartyApps: apps})
	dev, err := device.Boot(device.Config{Seed: 1, InstallThirdPartyApps: true})
	if err != nil {
		return nil, err
	}
	res, err := analysis.Run(ctx, c.Program, dev, analysis.VerifyConfig{Calls: calls, GCEvery: 30, Workers: workers})
	if err != nil {
		return nil, err
	}
	zero := make(map[string]bool)
	for _, f := range res.Verify.Confirmed {
		if f.Source == analysis.SourceServiceManager && f.Permission == "" {
			zero[f.Service] = true
		}
	}
	return &HeadlineResult{Pipeline: res, Funnel: res.Funnel(), ZeroPermServices: len(zero)}, nil
}

// AttackCurve is one Fig. 3 line: the victim's JGR count over attack time
// for one interface, plus the time the table hit its cap.
type AttackCurve struct {
	Interface string
	Series    metrics.Series
	// Duration is the virtual time from attack start to runtime abort.
	Duration time.Duration
	Calls    int
	// Err records an IPC failure that aborted the attack mid-run ("" for
	// a clean run to exhaustion). The curve holds whatever was sampled up
	// to the failure.
	Err string `json:",omitempty"`
}

// Fig3AttackCurves drives a dedicated attacker against each named
// exploitable interface on a fresh device and records the victim's JGR
// growth until exhaustion (paper Fig. 3). Empty ifaces means all 54. The
// sweep runs on a worker pool: each interface attacks its own freshly
// booted device, so any worker count produces identical curves (workers:
// 0 = one per CPU, 1 = sequential).
func Fig3AttackCurves(ctx context.Context, scale Scale, ifaces []string, workers int) ([]AttackCurve, error) {
	// Never append into the caller's slice: an empty-but-capacious
	// argument would otherwise have its backing array overwritten.
	targets := append([]string(nil), ifaces...)
	if len(targets) == 0 {
		for _, row := range catalog.ExploitableInterfaces() {
			targets = append(targets, row.FullName())
		}
	}
	jgrCap := scale.jgrCap()
	return parallel.Map(ctx, targets, workers, func(_ context.Context, _ int, name string) (AttackCurve, error) {
		curve, err := attackOnce(name, jgrCap)
		if err != nil {
			return AttackCurve{}, fmt.Errorf("experiments: fig3 %s: %w", name, err)
		}
		return curve, nil
	})
}

func attackOnce(iface string, jgrCap int) (AttackCurve, error) {
	dev, err := device.Boot(device.Config{Seed: 11, ServerVM: art.Config{MaxGlobalRefs: jgrCap}})
	if err != nil {
		return AttackCurve{}, err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return AttackCurve{}, err
	}
	atk, err := workload.NewAttacker(dev, evil, iface)
	if err != nil {
		return AttackCurve{}, err
	}
	row := atk.Target()
	victim := dev.Service(row.Service).Host()
	curve := AttackCurve{Interface: iface}
	curve.Series.Name = iface
	start := dev.Clock().Now()
	sampleEvery := 200
	var stepErr error
	for i := 0; victim.Alive(); i++ {
		if atk.Due() > dev.Clock().Now() {
			dev.Clock().Set(atk.Due())
		}
		if err := atk.Step(); err != nil {
			// Expected on the final call — the one that overflows the
			// table kills the victim. A failure with the victim still
			// alive is a genuine aborted attack, classified below.
			stepErr = err
			break
		}
		if i%sampleEvery == 0 {
			curve.Series.Add(dev.Clock().Now()-start, float64(victim.VM().GlobalRefCount()))
		}
		if i > 40*art.MaxGlobalRefs {
			return curve, fmt.Errorf("attack did not converge after %d calls", i)
		}
	}
	curve.Series.Add(dev.Clock().Now()-start, float64(victim.VM().PeakGlobalRefCount()))
	curve.Duration = dev.Clock().Now() - start
	curve.Calls = atk.Calls()
	if victim.Alive() {
		if stepErr == nil {
			return curve, fmt.Errorf("victim survived the attack")
		}
		// The attack died before exhausting the victim: record the cause
		// on the curve instead of swallowing it (the sweep continues; the
		// cmd layer flags the row).
		curve.Err = stepErr.Error()
	}
	return curve, nil
}

// Fig4Result is the benign baseline: system_server's JGR table size and
// the running process count while cycling the top apps.
type Fig4Result struct {
	JGR       metrics.Series
	Processes metrics.Series
	// MaxConcurrentApps is the peak number of simultaneously running
	// user apps (the paper sees ≈39 before the LMK steps in).
	MaxConcurrentApps int
	LMKKills          int
}

// Fig4BenignBaseline reproduces Fig. 4 and Observation 1: install rounds
// of top apps, run each for two virtual minutes, background it (HOME), and
// sample system_server's JGR table plus the process count.
func Fig4BenignBaseline(scale Scale) (*Fig4Result, error) {
	rounds, perRound := 1, 30
	if scale == Full {
		rounds, perRound = 3, 100
	}
	dev, err := device.Boot(device.Config{Seed: 21})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	res.JGR.Name = "system_server JGR"
	res.Processes.Name = "running processes"
	sample := func() {
		res.JGR.Add(dev.Clock().Now(), float64(dev.SystemServer().VM().GlobalRefCount()))
		res.Processes.Add(dev.Clock().Now(), float64(dev.Kernel().RunningCount()))
		if n := runningApps(dev); n > res.MaxConcurrentApps {
			res.MaxConcurrentApps = n
		}
	}
	sample()
	appSeq := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			pkg := fmt.Sprintf("com.play.top%03d", appSeq)
			appSeq++
			app, err := dev.Apps().Install(pkg)
			if err != nil {
				return nil, err
			}
			app.Start()
			b, err := workload.NewBenignApp(dev, app, int64(100+appSeq), 1500*time.Millisecond)
			if err != nil {
				return nil, err
			}
			// Drive this app in the foreground for two virtual minutes
			// (the paper's MonkeyRunner session), sampling as we go.
			sched := workload.NewScheduler(dev)
			sched.Add(b)
			end := dev.Clock().Now() + 2*time.Minute
			b.StopAfter(end)
			sched.Run(func() bool { return dev.Clock().Now() >= end }, 100000)
			if dev.Clock().Now() < end {
				dev.Clock().Set(end)
			}
			app.SetBackground() // press HOME
			sample()
		}
	}
	res.LMKKills = dev.Kernel().LMKKills()
	return res, nil
}

func runningApps(dev *device.Device) int {
	n := 0
	for _, a := range dev.Apps().Installed() {
		if a.Running() {
			n++
		}
	}
	return n
}

// Fig5Result is the per-call execution time of
// telephony.registry.listenForSubscriber across a long attack.
type Fig5Result struct {
	// ExecTimes[i] is the service execution time of call i.
	ExecTimes []time.Duration
	Calls     int
}

// Fig5ExecutionGrowth reproduces Fig. 5: invoke listenForSubscriber
// repeatedly and measure each call's execution duration, which grows with
// the number of stored registrations. Full scale uses the paper's 50,236
// calls.
func Fig5ExecutionGrowth(scale Scale) (*Fig5Result, error) {
	calls := 5000
	if scale == Full {
		calls = 50236
	}
	// The paper's 50,236-call trace assumes one JGR per call; our service
	// model pins two (proxy + death recipient), which would abort the
	// victim halfway through. This is a measurement run, not an attack
	// run, so give the instrumented victim an enlarged table — the
	// execution-time growth being measured depends only on the stored
	// registration count.
	vm := art.Config{}
	if 2*calls+2000 > art.MaxGlobalRefs {
		vm.MaxGlobalRefs = 2*calls + 4000
	}
	dev, err := device.Boot(device.Config{Seed: 31, ServerVM: vm})
	if err != nil {
		return nil, err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return nil, err
	}
	atk, err := workload.NewAttacker(dev, evil, "telephony.registry.listenForSubscriber")
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Calls: calls, ExecTimes: make([]time.Duration, 0, calls)}
	for i := 0; i < calls; i++ {
		// Step issues exactly one IPC; the attacker's idle think time is
		// realized by a scheduler between steps, so the clock delta here
		// is the call's execution duration (driver + handler).
		t0 := dev.Clock().Now()
		if err := atk.Step(); err != nil {
			return nil, err
		}
		res.ExecTimes = append(res.ExecTimes, dev.Clock().Now()-t0)
	}
	return res, nil
}

// Fig6Result maps each vulnerable interface to the distribution of its
// execution time over n calls.
type Fig6Result struct {
	PerInterface map[string]metrics.Summary
	CDFs         map[string]*metrics.CDF
	CallsPer     int
}

// Fig6LatencyCDF reproduces Fig. 6: invoke every vulnerable interface
// 1,000 times (Quick: 200) and build the execution-time CDF per
// interface; the Δ spread across interfaces must stay small. Every
// interface is metered on its own freshly booted device (seed 41), so each
// service's cost PRNG starts from the same point regardless of which other
// interfaces are measured, on how many workers, or in what order.
func Fig6LatencyCDF(ctx context.Context, scale Scale, workers int) (*Fig6Result, error) {
	calls := 200
	if scale == Full {
		calls = 1000
	}
	type shard struct {
		summary metrics.Summary
		cdf     *metrics.CDF
	}
	rows := catalog.ExploitableInterfaces()
	shards, err := parallel.Map(ctx, rows, workers, func(_ context.Context, idx int, row catalog.Interface) (shard, error) {
		dev, err := device.Boot(device.Config{Seed: 41})
		if err != nil {
			return shard{}, err
		}
		app, err := dev.Apps().Install(fmt.Sprintf("com.jgre.meter%03d", idx))
		if err != nil {
			return shard{}, err
		}
		atk, err := workload.NewAttacker(dev, app, row.FullName())
		if err != nil {
			return shard{}, err
		}
		samples := make([]time.Duration, 0, calls)
		for i := 0; i < calls; i++ {
			t0 := dev.Clock().Now()
			if err := atk.Step(); err != nil {
				return shard{}, fmt.Errorf("experiments: fig6 %s: %w", row.FullName(), err)
			}
			samples = append(samples, dev.Clock().Now()-t0)
		}
		vals := metrics.Durations(samples)
		return shard{summary: metrics.Summarize(vals), cdf: metrics.NewCDF(vals)}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{
		PerInterface: make(map[string]metrics.Summary),
		CDFs:         make(map[string]*metrics.CDF),
		CallsPer:     calls,
	}
	for i, s := range shards {
		res.PerInterface[rows[i].FullName()] = s.summary
		res.CDFs[rows[i].FullName()] = s.cdf
	}
	return res, nil
}
