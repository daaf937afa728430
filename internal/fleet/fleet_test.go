package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/catalog"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// resultBytes canonicalizes a fleet result for equality checks.
func resultBytes(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func runFleet(t *testing.T, cfg Config, w Workload) *Result {
	t.Helper()
	r, err := Run(context.Background(), cfg, w)
	if err != nil {
		t.Fatalf("fleet run (%s, workers=%d): %v", w.Name, cfg.Workers, err)
	}
	return r
}

// freshBoots runs fn with clone-boot disabled, so every slot boots each
// device from scratch: the reference recycled slots must match.
func freshBoots(fn func()) {
	device.SetCloneBoot(false)
	defer device.SetCloneBoot(true)
	fn()
}

// TestFleetBaselineDeterminism is the engine's core guarantee: the same
// fleet seed yields byte-identical rollups for any worker count, and
// recycled slots match devices booted fresh.
func TestFleetBaselineDeterminism(t *testing.T) {
	cfg := Config{Devices: 192, Workers: 1, Seed: 42, ChunkSize: 16}
	want := resultBytes(t, runFleet(t, cfg, BaselineProbe()))
	for _, workers := range []int{4, 16} {
		c := cfg
		c.Workers = workers
		if got := resultBytes(t, runFleet(t, c, BaselineProbe())); got != want {
			t.Errorf("workers=%d rollup differs:\n got %s\nwant %s", workers, got, want)
		}
	}
	freshBoots(func() {
		c := cfg
		c.Workers = 4
		if got := resultBytes(t, runFleet(t, c, BaselineProbe())); got != want {
			t.Errorf("fresh boots rollup differs:\n got %s\nwant %s", got, want)
		}
	})
	// Chunk size is part of the run's identity (it is recorded in the
	// result), but the aggregates it folds must match any chunking.
	c := cfg
	c.ChunkSize = 7
	odd := runFleet(t, c, BaselineProbe())
	odd.ChunkSize = cfg.ChunkSize
	if got := resultBytes(t, odd); got != want {
		t.Errorf("chunk=7 aggregates differ:\n got %s\nwant %s", got, want)
	}
}

// TestFleetAttackRolloutDeterminism runs the defender-bearing workload
// across worker counts — the recycled-slot result must be byte-identical
// to devices booted fresh.
func TestFleetAttackRolloutDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("defender fleet sweep is slow; skipping under -short")
	}
	devices := 64
	w := AttackRollout(devices)
	cfg := Config{Devices: devices, Workers: 1, Seed: 7, ChunkSize: 8}
	want := resultBytes(t, runFleet(t, cfg, w))
	c := cfg
	c.Workers = 4
	if got := resultBytes(t, runFleet(t, c, w)); got != want {
		t.Errorf("workers=4 rollup differs:\n got %s\nwant %s", got, want)
	}
	freshBoots(func() {
		if got := resultBytes(t, runFleet(t, c, w)); got != want {
			t.Errorf("fresh boots rollup differs:\n got %s\nwant %s", got, want)
		}
	})
}

// exhaustCap is the exhaust workload's system_server JGR cap: small, so
// one attacker overflows the table in a few hundred registrations.
const exhaustCap = 2200

// exhaust is an undefended attack run until system_server aborts on JGR
// overflow and the device soft-reboots — the dirtiest state a trial can
// hand back to its slot. A trial fails unless it ends in exactly one
// soft reboot with the JGR peak at the cap.
func exhaust() Workload {
	target := catalog.FastestInterfaces(1)[0]
	return Workload{
		Name: "test-exhaust",
		Run: func(dev *device.Device, index int, seed int64) (Trial, error) {
			victim := dev.SystemServer()
			sched := workload.NewScheduler(dev)
			if _, err := workload.Population(dev, sched, 3, seed, 2*time.Second); err != nil {
				return Trial{}, err
			}
			app, err := dev.Apps().Install("com.evil.app")
			if err != nil {
				return Trial{}, err
			}
			app.Start()
			atk, err := workload.NewAttacker(dev, app, target)
			if err != nil {
				return Trial{}, err
			}
			sched.Add(atk)
			steps := sched.Run(func() bool { return dev.SoftReboots() > 0 }, trialBudget)
			t := Trial{Infected: true, Steps: int64(steps), PeakJGR: int64(victim.VM().PeakGlobalRefCount())}
			if n := dev.SoftReboots(); n != 1 || t.PeakJGR != exhaustCap {
				return t, fmt.Errorf("%d soft reboots and a JGR peak of %d; want 1 at the %d cap", n, t.PeakJGR, exhaustCap)
			}
			return t, nil
		},
	}
}

// TestFleetRecycleAfterSoftReboot is the fleet-scale check that a slot
// recycled after a soft reboot starts its next trial as a fresh boot
// would: every device of the exhaust workload soft-reboots once, each
// slot serves several of them in a row, and the rollup is byte-identical
// for any worker count and to devices booted fresh.
func TestFleetRecycleAfterSoftReboot(t *testing.T) {
	cfg := Config{Devices: 24, Workers: 1, Seed: 5, ChunkSize: 4,
		Device: device.Config{ServerVM: art.Config{MaxGlobalRefs: exhaustCap}}}
	r := runFleet(t, cfg, exhaust())
	if r.Devices != 24 || r.Infected != 24 {
		t.Fatalf("ran %d devices, %d infected; want 24 of 24", r.Devices, r.Infected)
	}
	want := resultBytes(t, r)
	c := cfg
	c.Workers = 4
	if got := resultBytes(t, runFleet(t, c, exhaust())); got != want {
		t.Errorf("workers=4 rollup differs:\n got %s\nwant %s", got, want)
	}
	freshBoots(func() {
		for _, workers := range []int{1, 4} {
			c := cfg
			c.Workers = workers
			if got := resultBytes(t, runFleet(t, c, exhaust())); got != want {
				t.Errorf("workers=%d fresh boots rollup differs:\n got %s\nwant %s", workers, got, want)
			}
		}
	})
}

// spawnedState is what a process a trial spawned shows of itself: its
// identity, its runtime's counters, table size and hooks, and its death
// notifications.
type spawnedState struct {
	name                                      string
	uid                                       kernel.Uid
	alive                                     bool
	adds, removes, gcCycles, pushes, poolHits uint64
	peak, size, hooks, deathFns               int
}

func stateOf(p *kernel.Process) spawnedState {
	s := spawnedState{name: p.Name(), uid: p.Uid(), alive: p.Alive(), deathFns: p.DeathNotificationCount()}
	if vm := p.VM(); vm != nil {
		s.adds, s.removes, s.gcCycles = vm.TotalGlobalAdds(), vm.TotalGlobalRemoves(), vm.GCCycles()
		s.pushes, s.poolHits = vm.FramePushes(), vm.FramePoolHits()
		s.peak, s.size, s.hooks = vm.PeakGlobalRefCount(), vm.GlobalRefCount(), vm.JGRHookCount()
	}
	return s
}

// trialSpawns runs the exhaust workload's trial on dev and returns every
// process it spawned, the processes at pids from first on, alive or
// killed on the way, with the device's /proc/jgre_metrics render.
func trialSpawns(t *testing.T, dev *device.Device, seed int64, first kernel.Pid) (map[kernel.Pid]*kernel.Process, string) {
	t.Helper()
	spawned := map[kernel.Pid]*kernel.Process{}
	dev.Kernel().OnKill(func(p *kernel.Process, _ string) {
		if p.Pid() >= first {
			spawned[p.Pid()] = p
		}
	})
	if _, err := exhaust().Run(dev, 0, seed); err != nil {
		t.Fatal(err)
	}
	for _, p := range dev.Kernel().Processes() {
		if p.Pid() >= first {
			spawned[p.Pid()] = p
		}
	}
	render, err := dev.Kernel().ProcFS().Read(device.MetricsPath, kernel.SystemUid)
	if err != nil {
		t.Fatal(err)
	}
	return spawned, string(render)
}

// TestReusedPidLooksFreshlySpawned runs the exhaust trial, an attacker
// beside benign apps until system_server aborts and the device
// soft-reboots, on a recycled slot, then a trial with another seed. The
// second trial spawns most of its processes at pids the first one used,
// so the kernel hands it the first trial's parked processes and
// runtimes. Every such process must look freshly spawned: equal, field
// by field, to the process at the same pid on a device booted fresh
// (SetCloneBoot(false)). The first trial's survivors leave with a death
// notification, an extra JGR hook and, through the broadcast receivers,
// a system_server JGR peak above a fresh one's, which a parked process
// must not carry over.
func TestReusedPidLooksFreshlySpawned(t *testing.T) {
	cfg := device.Config{ServerVM: art.Config{MaxGlobalRefs: exhaustCap}}
	var first kernel.Pid
	freshBoots(func() {
		d, err := device.Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Kernel().Processes() {
			first = max(first, p.Pid()+1)
		}
	})
	slot, err := device.NewSlot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := slot.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := trialSpawns(t, d, 3, first)
	for _, p := range before {
		if !p.Alive() {
			continue
		}
		if err := d.RegisterBroadcastReceiver(p); err != nil {
			t.Fatal(err)
		}
		if vm := p.VM(); vm != nil {
			vm.AddJGRHook(func(art.JGREvent) {})
		}
	}
	if d, err = slot.Acquire(9); err != nil {
		t.Fatal(err)
	}
	got, gotRender := trialSpawns(t, d, 9, first)

	var want map[kernel.Pid]*kernel.Process
	var wantRender string
	freshBoots(func() {
		fresh, err := device.Boot(device.Config{Seed: 9, ServerVM: cfg.ServerVM})
		if err != nil {
			t.Fatal(err)
		}
		want, wantRender = trialSpawns(t, fresh, 9, first)
	})
	reused := 0
	for pid, p := range got {
		if before[pid] == nil {
			continue
		}
		reused++
		w := want[pid]
		if w == nil {
			t.Fatalf("pid %d, spawned again on the recycled slot, was never spawned on the fresh device", pid)
		}
		if stateOf(p) != stateOf(w) {
			t.Fatalf("pid %d, spawned again on the recycled slot: %+v; booted fresh: %+v", pid, stateOf(p), stateOf(w))
		}
	}
	if reused < 380 {
		t.Fatalf("the second trial spawned %d processes at pids the first one used; want 380 or more", reused)
	}
	if gotRender != wantRender {
		t.Fatalf("recycled /proc/jgre_metrics differs from a fresh boot's:\n--- recycled ---\n%s\n--- fresh ---\n%s", gotRender, wantRender)
	}
}

// TestFleetAttackRolloutDetects sanity-checks the rollout physics: the
// ramp infects a growing share of the fleet, the quick-scale defender
// catches essentially all of them, and detection timing lands in the
// histograms.
func TestFleetAttackRolloutDetects(t *testing.T) {
	if testing.Short() {
		t.Skip("defender fleet sweep is slow; skipping under -short")
	}
	devices := 64
	r := runFleet(t, Config{Devices: devices, Seed: 7, ChunkSize: 8}, AttackRollout(devices))
	if r.Infected == 0 || r.Infected == int64(devices) {
		t.Fatalf("rollout ramp degenerate: %d/%d infected", r.Infected, devices)
	}
	if r.DetectionRate < 0.95 {
		t.Errorf("detection rate %.2f; want >= 0.95 (detected %d of %d)",
			r.DetectionRate, r.Detected, r.Infected)
	}
	if r.TimeToDetectMS.Count != uint64(r.Detected) || r.TimeToDetectMS.Max == 0 {
		t.Errorf("detect histogram not populated: %+v", r.TimeToDetectMS)
	}
}

// TestFleetColludersAttribution checks the colluder cells are engaged
// and the kill split distinguishes colluders from bystanders.
func TestFleetColludersAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("defender fleet sweep is slow; skipping under -short")
	}
	r := runFleet(t, Config{Devices: 48, Seed: 11, ChunkSize: 8}, Colluders())
	if r.Infected == 0 {
		t.Fatal("no colluder cells in 48 devices")
	}
	if r.Detected == 0 {
		t.Fatalf("no colluder cell engaged the defender: %+v", r)
	}
	if r.ColludersCaught == 0 {
		t.Errorf("engagements killed no colluders: %+v", r)
	}
}

// TestFleetErrors covers the engine's argument validation.
func TestFleetErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, BaselineProbe()); err == nil {
		t.Error("Devices=0 accepted")
	}
	if _, err := Run(context.Background(), Config{Devices: 1}, Workload{Name: "x"}); err == nil {
		t.Error("nil Run accepted")
	}
}

// TestFleetCancellation stops a sweep via the caller's context.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Devices: 64, Workers: 2}, BaselineProbe()); err == nil {
		t.Error("cancelled fleet run returned no error")
	}
}

// TestDeviceSeedDerivation pins the splitmix64 derivation: distinct per
// index, worker-independent, and stable across releases (rollups depend
// on it).
func TestDeviceSeedDerivation(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 4096; i++ {
		s := DeviceSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: indices %d and %d both derive %d", prev, i, s)
		}
		seen[s] = i
	}
	if DeviceSeed(42, 0) == DeviceSeed(43, 0) {
		t.Error("fleet seed does not influence device seeds")
	}
	// Golden values: changing the derivation silently changes every
	// fleet rollup, so it must be deliberate.
	if got, want := DeviceSeed(42, 0), int64(-4767286540954276203); got != want {
		t.Errorf("DeviceSeed(42,0) = %d, want %d", got, want)
	}
}

// TestAccumulatorMergeRace exercises concurrent Add into per-worker
// accumulators plus merges into a mutex-guarded total — the engine's
// aggregation shape — under the race detector.
func TestAccumulatorMergeRace(t *testing.T) {
	total := NewAccumulator()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc := NewAccumulator()
			for i := 0; i < 1000; i++ {
				acc.Add(Trial{
					Infected: i%2 == 0, Detected: i%4 == 0, Recovered: i%8 == 0,
					DetectMS: int64(i), RecoverMS: int64(2 * i),
					PeakJGR: int64(1000 + i), Steps: int64(g*1000 + i),
				})
			}
			mu.Lock()
			total.Merge(acc)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if total.Devices != 8000 {
		t.Fatalf("merged %d devices, want 8000", total.Devices)
	}
	if total.PeakJGR.Count != 8000 || total.Steps.Count != 8000 {
		t.Fatalf("histogram counts %d/%d, want 8000", total.PeakJGR.Count, total.Steps.Count)
	}
}

// TestDistQuantiles pins the bucket-estimated percentiles on a known
// shape.
func TestDistQuantiles(t *testing.T) {
	d := newDist([]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := int64(1); v <= 100; v++ {
		d.Observe(v)
	}
	s := d.summarize()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean != 50.5 {
		t.Errorf("mean %v, want 50.5", s.Mean)
	}
	// The estimate is the upper edge of the bucket covering the rank:
	// the 51st value (51) lands in (50, 60].
	if s.P50 != 60 {
		t.Errorf("p50 %d, want bucket edge 60", s.P50)
	}
	if s.P99 != 100 {
		t.Errorf("p99 %d, want 100", s.P99)
	}
	// Outliers past the last bound land in the overflow bucket and clamp
	// to the exact max.
	d.Observe(100000)
	if got := d.quantile(0.999); got != 100000 {
		t.Errorf("overflow quantile %d, want 100000", got)
	}
}

// BenchmarkFleet prices one 256-device fleet-baseline sweep per
// iteration on recycled slots. Its allocs/op is deterministic, and
// `make bench-smoke` holds it to max_allocs_per_op in
// BENCH_hotpath.json: a recycle that fell back to cloning per device
// would read about four times as many.
func BenchmarkFleet(b *testing.B) {
	const devices = 256
	cfg := Config{Devices: devices, Workers: 1, Seed: 42}
	w := BaselineProbe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if r.Devices != devices {
			b.Fatalf("ran %d devices, want %d", r.Devices, devices)
		}
	}
	b.StopTimer()
	devSec := float64(devices) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(devSec, "devices/sec")
}

// BenchmarkDefendedTrial prices one defended attack trial per iteration
// on one recycled slot, in the shape of fleetbench's defend workload:
// three benign apps and the attacker on catalog.FastestInterfaces(1)[0]
// under defense.New with a zero Config (the paper's 4,000/12,000
// thresholds), run until the first engagement. Every iteration replays
// the same device seed, so its allocations are a count, not a sample.
// One untimed warm-up trial first grows what the slot keeps and leaves
// an engagement in the defender's store, so the timed trials allocate
// what a running fleet's do. make bench-smoke holds its allocs/op and
// B/op to max_allocs_per_op and max_bytes_per_op in BENCH_hotpath.json.
func BenchmarkDefendedTrial(b *testing.B) {
	const evil = "com.evil.app"
	target := catalog.FastestInterfaces(1)[0]
	slot, err := device.NewSlot(device.Config{})
	if err != nil {
		b.Fatal(err)
	}
	seed := DeviceSeed(1, 0)
	trial := func() {
		dev, err := slot.Acquire(seed)
		if err != nil {
			b.Fatal(err)
		}
		def, err := defense.New(dev, defense.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sched := workload.NewScheduler(dev)
		if _, err := workload.Population(dev, sched, 3, seed, 2*time.Second); err != nil {
			b.Fatal(err)
		}
		app, err := dev.Apps().Install(evil)
		if err != nil {
			b.Fatal(err)
		}
		app.Start()
		atk, err := workload.NewAttacker(dev, app, target)
		if err != nil {
			b.Fatal(err)
		}
		sched.Add(atk)
		sched.Run(func() bool { return len(def.History()) > 0 }, trialBudget)
		hist := def.History()
		if len(hist) == 0 || len(hist[0].Killed) == 0 || hist[0].Killed[0] != evil || !hist[0].Recovered {
			b.Fatalf("trial did not end in the attacker's kill and a recovery: %+v", hist)
		}
	}
	trial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}
