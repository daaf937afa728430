package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
)

// batchSeed is the fleet seed of the b-th fleet.Run of a run: derived
// from the run's seed with fleet.DeviceSeed, so every device seed is a
// function of the seed argument alone.
func batchSeed(seed int64, b int) int64 { return fleet.DeviceSeed(seed, b) }

// digest is a fleet rollup's identity: the first 8 bytes of the SHA-256
// of its JSON, in hex.
func digest(r *fleet.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// runtime/metrics samples the benchmark reads.
const (
	mHeapLive = "/gc/heap/live:bytes"
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// heapTrials is how many trial boundaries the live-heap metric reads.
const heapTrials = 64

// runner drives one workload's fleet runs and collects what the trials
// report back.
type runner struct {
	s    *shape
	seed int64

	attempted int64
	failed    int64
	firstErr  error

	// trialNS sums trial wall time; trials holds each trial's time since
	// the end-to-end run last took them.
	trialNS int64
	trials  *hist
}

func newRunner(s *shape, seed int64) *runner {
	return &runner{s: s, seed: seed, trials: newHist()}
}

// workload wraps the shape's trial as a fleet workload: it times each
// trial and turns a trial error or failed outcome check into a counted
// failure, so one bad device never aborts the rest of the fleet.
func (r *runner) workload(l *layers) fleet.Workload {
	return fleet.Workload{
		Name: r.s.name,
		Run: func(dev *device.Device, index int, seed int64) (fleet.Trial, error) {
			m := l.begin(dev)
			t0 := time.Now()
			t, err := r.s.trial(dev, seed, l)
			d := time.Since(t0)
			l.end(dev, m)
			r.trialNS += int64(d)
			r.trials.observe(d)
			r.attempted++
			if err != nil {
				r.fail(fmt.Errorf("device %d (seed %d): %w", index, seed, err))
				return fleet.Trial{}, nil
			}
			return t, nil
		},
	}
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// batch is one timed fleet.Run of the shape's batch width with Workers:
// 1, so devices run back to back on one goroutine (a closed loop).
type batch struct {
	res    *fleet.Result
	wall   time.Duration
	trials time.Duration
}

func (r *runner) batch(fleetSeed int64, cfg device.Config, l *layers) (batch, error) {
	trial0 := r.trialNS
	t0 := time.Now()
	res, err := fleet.Run(context.Background(), fleet.Config{
		Devices: r.s.batch, Workers: 1, Seed: fleetSeed, Device: cfg,
	}, r.workload(l))
	wall := time.Since(t0)
	if err != nil {
		return batch{}, err
	}
	return batch{res: res, wall: wall, trials: time.Duration(r.trialNS - trial0)}, nil
}

// rate is the batch's devices per second.
func (b batch) rate() float64 { return float64(b.res.Devices) / b.wall.Seconds() }

// readMetrics returns the current values of the named cumulative
// runtime metrics.
func readMetrics(names ...string) []float64 {
	ss := make([]metrics.Sample, len(names))
	for i, n := range names {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := make([]float64, len(ss))
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// endToEndRun is what the untraced run reports.
type endToEndRun struct {
	// metrics are BENCHMARK.json's end_to_end metrics.
	metrics map[string]metric
	// wall holds the same rate and times in wall-clock units and the
	// median slowness, for the printed table only.
	wall map[string]metric
	// first is the digest of the first timed fleet run's rollup.
	first string
}

// endToEnd is the untraced run: set-up, one warm-up fleet run, then
// fleet runs of fresh seeds back to back until the deadline. After every
// fleet run, outside its timing, it times the yardstick, which turns that
// fleet run's rate and trial times into reference ones, and repeats the
// cold set-up, so the set-up median spans the same stretch of machine
// load as the other metrics rather than the first few milliseconds of
// the process.
func (r *runner) endToEnd(seconds time.Duration) (*endToEndRun, error) {
	var setups, rates, refRates, slows []float64
	refTrials, wallTrials := newHist(), newHist()
	setup := func() error {
		d, err := r.s.setup(r.seed)
		setups = append(setups, d.Seconds())
		return err
	}
	if err := setup(); err != nil {
		return nil, err
	}
	if _, err := r.batch(batchSeed(r.seed, 0), r.s.device, nil); err != nil {
		return nil, err
	}
	r.attempted, r.failed, r.firstErr = 0, 0, nil
	r.trials.reset()
	before := readMetrics(mAllocs)[0]
	var setupAllocs float64
	var first string
	devices := 0
	deadline := time.Now().Add(seconds)
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		bt, err := r.batch(batchSeed(r.seed, b), r.s.device, nil)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			if first, err = digest(bt.res); err != nil {
				return nil, err
			}
		}
		devices += bt.res.Devices
		a := readMetrics(mAllocs)[0]
		slow, err := yardstick()
		if err != nil {
			return nil, err
		}
		rates, refRates, slows = append(rates, bt.rate()), append(refRates, bt.rate()*slow), append(slows, slow)
		refTrials.addScaled(r.trials, 1/slow)
		wallTrials.addScaled(r.trials, 1)
		r.trials.reset()
		if err := setup(); err != nil {
			return nil, err
		}
		setupAllocs += readMetrics(mAllocs)[0] - a
	}
	allocs := readMetrics(mAllocs)[0] - before - setupAllocs
	// The percentiles are taken before the live heap is read, which leaves
	// the two histograms garbage by then.
	var ps [4]float64 // reference p50 and p90, then wall p50 and p90
	for i, h := range []*hist{refTrials, wallTrials} {
		for j, p := range []float64{0.5, 0.9} {
			var err error
			if ps[2*i+j], err = h.percentile(p); err != nil {
				return nil, err
			}
		}
	}
	heap, err := r.liveHeap()
	if err != nil {
		return nil, err
	}
	return &endToEndRun{
		metrics: map[string]metric{
			"devices_per_ref_s":   {median(refRates), "1/ref_s"},
			"trial_ref_ms_p50":    {ps[0], "ref_ms"},
			"trial_ref_ms_p90":    {ps[1], "ref_ms"},
			"alloc_kb_per_device": {allocs / float64(devices) / 1024, "KiB"},
			"heap_live_mb":        {heap / (1 << 20), "MiB"},
			"setup_s":             {median(setups), "s"},
		},
		wall: map[string]metric{
			"wall.devices_per_s": {median(rates), "1/s"},
			"wall.trial_ms_p50":  {ps[2], "ms"},
			"wall.trial_ms_p90":  {ps[3], "ms"},
			"wall.slowness":      {median(slows), "x"},
		},
		first: first,
	}, nil
}

// liveHeap runs heapTrials more trials, on a fresh slot every batch
// width as fleet.Run has them, collects garbage at each trial boundary
// while the device still holds the trial's state, and returns the mean
// live heap read there, in bytes. Forcing the collection makes a reading
// count live objects only: one left by a concurrent collection would
// also count what the trial allocated while it marked, which moves with
// machine speed. The mean, not the maximum or the median: on exhaust a
// recycled slot's live heap climbs by about a third of a MiB per trial
// for a seed-dependent number of trials before it drops back, so the
// maximum and the median jump with which seeds a run draws.
func (r *runner) liveHeap() (float64, error) {
	var slot *device.Slot
	var sum float64
	for i := 0; i < heapTrials; i++ {
		if i%r.s.batch == 0 {
			var err error
			if slot, err = device.NewSlot(r.s.device); err != nil {
				return 0, err
			}
		}
		seed := fleet.DeviceSeed(batchSeed(r.seed, i/r.s.batch), i%r.s.batch)
		dev, err := slot.Acquire(seed)
		if err != nil {
			return 0, fmt.Errorf("slot acquire: %w", err)
		}
		r.attempted++
		if _, err := r.s.trial(dev, seed, nil); err != nil {
			r.fail(fmt.Errorf("heap trial %d (seed %d): %w", i, seed, err))
		}
		runtime.GC()
		sum += readMetrics(mHeapLive)[0]
	}
	return sum / heapTrials, nil
}
