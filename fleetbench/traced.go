package main

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
)

// tracedRun is the per-layer run. Each round takes one fresh fleet seed
// and runs, back to back:
//
//  1. the untraced fleet.Run, as the end-to-end run makes it;
//  2. the same fleet.Run with the trial's layers timed, whose rollup
//     digest must equal the untraced one;
//  3. a loop over the same devices on the benchmark's own device.Slot and
//     fleet.Accumulator, timing Slot.Acquire and Accumulator.Add, which
//     fleet.Run calls where this package cannot reach them; its rollup
//     counts must match the untraced fleet.Run's;
//  4. for the probe shapes, the untraced fleet.Run with the flight
//     recorder toggled, for the trace overhead.
//
// Interleaving the four inside each round exposes them to the same
// drift in machine speed.
type tracedRun struct {
	r *runner
	l *layers

	untraced, traced, flipped []float64 // devices/s per round
	engineNS, untracedDevices int64
	trialNS                   int64 // trial wall time inside traced fleet runs
	acquire, add              span
	gcCPU, totalCPU           float64
	rounds                    int
	first                     string
}

func (r *runner) perLayer(seconds time.Duration) (*tracedRun, error) {
	if _, err := r.s.setup(r.seed); err != nil {
		return nil, err
	}
	t := &tracedRun{r: r, l: &layers{}}
	slot, err := device.NewSlot(r.s.device)
	if err != nil {
		return nil, err
	}
	if _, err := r.batch(batchSeed(r.seed, 0), r.s.device, nil); err != nil {
		return nil, err
	}
	r.attempted, r.failed, r.firstErr = 0, 0, nil
	deadline := time.Now().Add(seconds)
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		if err := t.round(slot, batchSeed(r.seed, b)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *tracedRun) round(slot *device.Slot, fleetSeed int64) error {
	r, s := t.r, t.r.s
	cpu0 := readMetrics(mGCCPU, mTotalCPU)
	u, err := r.batch(fleetSeed, s.device, nil)
	if err != nil {
		return err
	}
	cpu1 := readMetrics(mGCCPU, mTotalCPU)
	t.gcCPU += cpu1[0] - cpu0[0]
	t.totalCPU += cpu1[1] - cpu0[1]
	t.untraced = append(t.untraced, u.rate())
	t.engineNS += int64(u.wall - u.trials)
	t.untracedDevices += int64(u.res.Devices)

	tr, err := r.batch(fleetSeed, s.device, t.l)
	if err != nil {
		return err
	}
	t.traced = append(t.traced, tr.rate())
	t.trialNS += int64(tr.trials)
	du, err := digest(u.res)
	if err != nil {
		return err
	}
	dt, err := digest(tr.res)
	if err != nil {
		return err
	}
	if du != dt {
		return fmt.Errorf("fleet seed %d: traced rollup %s differs from untraced %s", fleetSeed, dt, du)
	}
	if t.rounds == 0 {
		t.first = du
	}
	t.rounds++

	if err := t.slotLoop(slot, fleetSeed, u.res); err != nil {
		return err
	}
	if s.flip != nil {
		f, err := r.batch(fleetSeed, *s.flip, nil)
		if err != nil {
			return err
		}
		t.flipped = append(t.flipped, f.rate())
	}
	return nil
}

// slotLoop replays fleet.Run's per-device loop on the benchmark's own
// slot and accumulator, timing the two engine calls, and checks that it
// reproduces want's counts.
func (t *tracedRun) slotLoop(slot *device.Slot, fleetSeed int64, want *fleet.Result) error {
	r := t.r
	acc := fleet.NewAccumulator()
	for i := 0; i < r.s.batch; i++ {
		seed := fleet.DeviceSeed(fleetSeed, i)
		t0 := time.Now()
		dev, err := slot.Acquire(seed)
		t.acquire.add(time.Since(t0))
		if err != nil {
			return fmt.Errorf("slot acquire: %w", err)
		}
		r.attempted++
		trial, err := r.s.trial(dev, seed, nil)
		if err != nil {
			r.fail(fmt.Errorf("slot loop device %d (seed %d): %w", i, seed, err))
			trial = fleet.Trial{}
		}
		t0 = time.Now()
		acc.Add(trial)
		t.add.add(time.Since(t0))
	}
	if got := rollupCounts(acc); got != resultCounts(want) {
		return fmt.Errorf("fleet seed %d: slot loop rollup %v differs from fleet.Run's %v", fleetSeed, got, resultCounts(want))
	}
	return nil
}

// counts is the part of a rollup both an Accumulator and a Result
// expose exactly.
type counts struct {
	devices, infected, detected, recovered, innocent, caught int64
	peakMin, peakMax, stepsMin, stepsMax                     int64
	peakN, stepsN                                            uint64
}

func rollupCounts(a *fleet.Accumulator) counts {
	return counts{a.Devices, a.Infected, a.Detected, a.Recovered, a.InnocentKills, a.ColludersCaught,
		a.PeakJGR.Min, a.PeakJGR.Max, a.Steps.Min, a.Steps.Max, a.PeakJGR.Count, a.Steps.Count}
}

func resultCounts(r *fleet.Result) counts {
	return counts{int64(r.Devices), r.Infected, r.Detected, r.Recovered, r.InnocentKills, r.ColludersCaught,
		r.PeakJGR.Min, r.PeakJGR.Max, r.Steps.Min, r.Steps.Max, r.PeakJGR.Count, r.Steps.Count}
}

// pct is 100·(a/b − 1), or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the per-layer table. Times are per call or per device
// of the traced fleet runs; a layer the workload never enters reads 0.
func (t *tracedRun) metrics() map[string]metric {
	l := t.l
	sp := &l.spans
	devices := float64(l.trials)
	perDevice := func(v float64) float64 { return ratio(v, devices) }
	traceOverhead := 0.0
	if f := t.r.s.flip; f != nil {
		on, off := median(t.flipped), median(t.untraced)
		if f.Trace.Enabled {
			on, off = off, on
		}
		traceOverhead = pct(off, on)
	}
	setupNS := float64(sp[trialSetup].ns - sp[defenseNew].ns)
	return map[string]metric{
		"device.slot_acquire_us":     {t.acquire.perCall(time.Microsecond), "us"},
		"fleet.accumulator_add_ns":   {t.add.perCall(time.Nanosecond), "ns"},
		"fleet.engine_us_per_device": {float64(t.engineNS) / float64(t.untracedDevices) / 1e3, "us"},
		"binder.call_us":             {sp[clientCall].perCall(time.Microsecond), "us"},
		"binder.transactions":        {perDevice(float64(l.transactions)), "count/device"},
		"binder.log_records":         {perDevice(float64(l.logRecords)), "count/device"},
		"binder.log_retained_ratio":  {ratio(float64(l.logRetained), float64(l.logRecords)), "ratio"},
		"workload.trial_setup_us":    {perDevice(setupNS) / 1e3, "us"},
		"defense.new_us":             {sp[defenseNew].perCall(time.Microsecond), "us"},
		"workload.steps":             {perDevice(float64(l.steps)), "count/device"},
		"event.self_ns_per_step":     {ratio(float64(l.self()), float64(l.steps)), "ns"},
		"workload.attacker_step_us":  {sp[attackerStep].perCall(time.Microsecond), "us"},
		"workload.benign_step_us":    {sp[benignStep].perCall(time.Microsecond), "us"},
		"device.stats_us":            {sp[deviceStats].perCall(time.Microsecond), "us"},
		"defense.engage_ms":          {sp[engageStep].perCall(time.Millisecond), "ms"},
		"defense.records_per_engage": {ratio(float64(l.recordsEngaged), float64(l.engagements)), "count"},
		"defense.analysis_sim_ms":    {ratio(float64(l.analysisSim)/1e6, float64(l.engagements)), "ms"},
		"defense.kill_precision":     {ratio(float64(l.guiltyKills), float64(l.kills)), "ratio"},
		"art.jgr_adds":               {perDevice(float64(l.jgrAdds)), "count/device"},
		"art.jgr_peak":               {perDevice(float64(l.jgrPeak)), "count"},
		"art.gc_cycles":              {perDevice(float64(l.gcCycles)), "count/device"},
		"kernel.reboot_ms":           {sp[rebootStep].perCall(time.Millisecond), "ms"},
		"trace.spans":                {perDevice(float64(l.spansEmitted)), "count/device"},
		"trace.retained_ratio":       {ratio(float64(l.spansRetained), float64(l.spansEmitted)), "ratio"},
		"trace.overhead_pct":         {traceOverhead, "%"},
		"runtime.gc_cpu_pct":         {100 * ratio(t.gcCPU, t.totalCPU), "%"},
		"bench.residual_pct":         {100 * (1 - ratio(float64(l.covered()), float64(t.trialNS))), "%"},
		"bench.timer_overhead_pct":   {pct(median(t.untraced), median(t.traced)), "%"},
	}
}

// shares splits the traced trials' wall time over the timed parts, in
// percent; the parts sum to 100.
func (t *tracedRun) shares() map[string]float64 {
	sp := &t.l.spans
	total := float64(t.trialNS)
	share := func(ns int64) float64 { return 100 * ratio(float64(ns), total) }
	return map[string]float64{
		"workload.trial_setup":   share(sp[trialSetup].ns - sp[defenseNew].ns),
		"defense.new":            share(sp[defenseNew].ns),
		"binder.call":            share(sp[clientCall].ns),
		"device.stats":           share(sp[deviceStats].ns),
		"event.self":             share(t.l.self()),
		"workload.attacker_step": share(sp[attackerStep].ns),
		"workload.benign_step":   share(sp[benignStep].ns),
		"residual":               share(t.trialNS - t.l.covered()),
	}
}
