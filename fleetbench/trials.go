package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/art"
	"repro/internal/catalog"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shape is one benchmark workload: the device every fleet member boots
// with, the trial every device runs, and how many devices one fleet.Run
// takes. Every device of a workload runs the same kind of trial, so a
// trial-time percentile never falls between two modes.
type shape struct {
	name string
	why  string
	// device is the fleet's device shape; flip is the same shape with the
	// flight recorder toggled, for the trace overhead (probe shapes only).
	device device.Config
	flip   *device.Config
	// batch is the fleet width of one fleet.Run: enough devices that one
	// run takes a few hundred milliseconds.
	batch int
	// attack selects attackTrial over probeTrial; defended runs it under
	// defense.New, otherwise it runs until system_server aborts.
	attack, defended bool

	// target is the attacked interface, chosen by setup.
	target string
}

// exhaustCap is the system_server JGR cap of the exhaust workload, the
// one fig3 uses at quick scale; at the real 51,200 a trial takes ≈150 ms
// and a run holds too few trials for a p90.
const exhaustCap = 6000

// shapes returns the benchmark's workloads in report order.
func shapes() []*shape {
	traced := device.Config{Trace: trace.Config{Enabled: true}}
	untraced := device.Config{}
	return []*shape{
		{
			name: "probe", device: untraced, flip: &traced, batch: 4096,
			why: "fleet throughput headline: device turnaround dominates, no JGR growth, scheduler or defender",
		},
		{
			name: "probe-traced", device: traced, flip: &untraced, batch: 4096,
			why: "the probe with the flight recorder on: the only workload where trace and telemetry hooks run",
		},
		{
			name: "defend", batch: 8, attack: true, defended: true,
			why: "every device infected under the paper's 4,000/12,000 defender: IPC logging and Algorithm 1 dominate",
		},
		{
			name: "exhaust", device: device.Config{ServerVM: art.Config{MaxGlobalRefs: exhaustCap}},
			batch: 16, attack: true,
			why: "the same attacker undefended until system_server aborts: table fill, abort and soft reboot dominate",
		},
	}
}

// shapeByName finds a workload.
func shapeByName(name string) (*shape, error) {
	for _, s := range shapes() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setup prepares the workload from an empty template cache: it boots
// and seals the template, makes a slot's first clone and chooses the
// attack target, and returns the time that took. The template stays
// cached for the fleet runs that follow.
func (s *shape) setup(seed int64) (time.Duration, error) {
	device.SetCloneBoot(true) // empties the template cache
	t0 := time.Now()
	slot, err := device.NewSlot(s.device)
	if err != nil {
		return 0, fmt.Errorf("setup %s: %w", s.name, err)
	}
	if _, err := slot.Acquire(fleet.DeviceSeed(seed, 0)); err != nil {
		return 0, fmt.Errorf("setup %s: first clone: %w", s.name, err)
	}
	if s.attack {
		s.target = fastestTarget()
	}
	return time.Since(t0), nil
}

// trial runs the workload's trial on dev.
func (s *shape) trial(dev *device.Device, seed int64, l *layers) (fleet.Trial, error) {
	if s.attack {
		return attackTrial(s, dev, seed, l)
	}
	return probeTrial(s, dev, seed, l)
}

// fastestTarget is the exploitable interface that exhausts its victim
// soonest (audio.startWatchingRoutes), chosen as the fleet workloads
// choose theirs.
func fastestTarget() string {
	rows := catalog.ExploitableInterfaces()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cost.AttackSeconds < rows[j].Cost.AttackSeconds })
	return rows[0].FullName()
}

// probeMethods are fleet.BaselineProbe's innocent calls; none retains a
// global reference.
var probeMethods = [3]string{"getState", "checkAccess", "noteEvent"}

// probeTrial is fleet.BaselineProbe's trial, rebuilt here so each
// services.Client.Call can be timed: one app makes 6–13 calls to
// clipboard and audio, with count and methods taken from the seed's
// bits, then reads the device stats. Outcome: every call succeeds, and
// system_server's JGR peak rises above where the app's set-up left it
// by exactly one reference per checkAccess or noteEvent call: those
// read the caller's binder and leave it for GC, getState takes none,
// and no call retains one.
func probeTrial(s *shape, dev *device.Device, seed int64, l *layers) (fleet.Trial, error) {
	t0 := l.now()
	app, err := dev.Apps().Install("com.fleet.probe")
	if err != nil {
		return fleet.Trial{}, err
	}
	app.Start()
	clip, err := dev.NewClient(app, "clipboard")
	if err != nil {
		return fleet.Trial{}, err
	}
	audio, err := dev.NewClient(app, "audio")
	if err != nil {
		return fleet.Trial{}, err
	}
	l.since(trialSetup, t0)
	held := dev.SystemServer().VM().GlobalRefCount()
	bits := uint64(seed)
	calls := 6 + int(bits>>40&7)
	transient := 0
	for i := 0; i < calls; i++ {
		c := clip
		if bits>>(i&31)&1 == 1 {
			c = audio
		}
		m := probeMethods[(i+int(bits>>35))%3]
		if m != "getState" {
			transient++
		}
		t := l.now()
		err := c.Call(m)
		l.since(clientCall, t)
		if err != nil {
			return fleet.Trial{}, err
		}
	}
	t := l.now()
	st := dev.Stats()
	l.since(deviceStats, t)
	if want := held + transient; st.SystemServerPeakJGR != want {
		return fleet.Trial{}, fmt.Errorf("outcome: JGR peak %d after the calls, want %d", st.SystemServerPeakJGR, want)
	}
	return fleet.Trial{PeakJGR: int64(st.SystemServerPeakJGR), Steps: int64(calls)}, nil
}

// evilPkg is the attacking app.
const evilPkg = "com.evil.app"

// trialBudget bounds a trial's scheduler steps, as in the fleet
// workloads; every trial stops orders of magnitude earlier.
const trialBudget = 400_000

// attackTrial runs three benign apps (workload.Population, 2 s
// interval) and one workload.Attacker on the target interface. Defended,
// it runs under defense.New with a zero Config until the first
// engagement; the outcome must be that engagement killing com.evil.app
// first, recovering, killing no one else and leaving no soft reboot.
// Undefended, it runs until system_server aborts; the outcome must be a
// JGR peak at the cap and exactly one soft reboot.
func attackTrial(s *shape, dev *device.Device, seed int64, l *layers) (fleet.Trial, error) {
	t0 := l.now()
	var def *defense.Defender
	if s.defended {
		t := l.now()
		d, err := defense.New(dev, defense.Config{})
		l.since(defenseNew, t)
		if err != nil {
			return fleet.Trial{}, err
		}
		def = d
	}
	victim := dev.SystemServer()
	sched := workload.NewScheduler(dev)
	benign, err := workload.Population(dev, nil, 3, seed, 2*time.Second)
	if err != nil {
		return fleet.Trial{}, err
	}
	for _, b := range benign {
		sched.Add(l.actor(b, benignStep))
	}
	app, err := dev.Apps().Install(evilPkg)
	if err != nil {
		return fleet.Trial{}, err
	}
	app.Start()
	atk, err := workload.NewAttacker(dev, app, s.target)
	if err != nil {
		return fleet.Trial{}, err
	}
	sched.Add(l.actor(atk, attackerStep))
	l.since(trialSetup, t0)

	stop, event := func() bool { return dev.SoftReboots() > 0 }, rebootStep
	if def != nil {
		stop = func() bool { return len(def.History()) > 0 || dev.SoftReboots() > 0 }
		event = engageStep
	}
	steps := l.run(sched, l.stopOn(stop, event), trialBudget)
	t := fleet.Trial{Infected: true, Steps: int64(steps), PeakJGR: int64(victim.VM().PeakGlobalRefCount())}
	reboots := dev.SoftReboots()
	if def == nil {
		if t.PeakJGR != exhaustCap || reboots != 1 {
			return t, fmt.Errorf("outcome: JGR peak %d (cap %d), %d soft reboots (want 1)", t.PeakJGR, exhaustCap, reboots)
		}
		return t, nil
	}
	hist := def.History()
	if len(hist) == 0 {
		return t, fmt.Errorf("outcome: defender never engaged (%d soft reboots)", reboots)
	}
	det := hist[0]
	t.Detected = true
	t.DetectMS = int64(det.EngagedAt / time.Millisecond)
	if det.Recovered {
		t.Recovered = true
		t.RecoverMS = int64((det.EngagedAt + det.AnalysisTime) / time.Millisecond)
	}
	for _, pkg := range det.Killed {
		if pkg == evilPkg {
			t.ColludersCaught++
		} else {
			t.InnocentKills++
		}
	}
	l.engaged(det, t.ColludersCaught)
	if len(det.Killed) == 0 || det.Killed[0] != evilPkg || !det.Recovered || t.InnocentKills > 0 || reboots > 0 {
		return t, fmt.Errorf("outcome: killed %v, recovered %v, %d soft reboots", det.Killed, det.Recovered, reboots)
	}
	return t, nil
}
