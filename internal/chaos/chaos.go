// Package chaos is the lifecycle chaos engine: deterministic, seeded
// process-level fault injection scheduled through the workload
// scheduler's virtual-time event queue. Where internal/faults perturbs
// the defender's *telemetry* (dropped records, jitter, skew), chaos
// perturbs the *processes themselves* — service hosts crash, app-service
// owners die, the defender process is killed and later restored, and
// system_server takes a mid-attack soft reboot. Every decision is a
// pure function of the engine seed and a monotone draw counter
// (splitmix64, the same construction internal/faults uses), so equal
// seeds give byte-identical fault schedules for any worker count.
package chaos

import (
	"time"

	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Reasons stamped on chaos kills. Workload actors and the supervisor
// key their recovery behaviour off these prefixes.
const (
	ReasonCrash  = "chaos: service crash"
	ReasonReboot = "chaos: soft reboot"
)

// Config declares the lifecycle fault model. The zero value injects
// nothing — a device under a zero Config is byte-identical to one
// without an engine.
type Config struct {
	// Seed drives victim selection; equal seeds give identical schedules.
	Seed int64
	// CrashEvery is the period between service crashes (0 disables).
	// Victims are drawn uniformly from the alive dedicated service
	// hosts, plus running installed apps when CrashApps is set, plus
	// app-service owner processes when CrashAppServices is set.
	CrashEvery       time.Duration
	CrashApps        bool
	CrashAppServices bool
	// RebootAt schedules one mid-run system_server kill — a soft reboot
	// — at the given virtual time (0 disables).
	RebootAt time.Duration
	// DefenderKillEvery is the period between defender process kills
	// (0 disables; requires a DefenderLifecycle). DefenderDowntime is
	// how long the defender stays down before Restore (0 → 500ms).
	DefenderKillEvery time.Duration
	DefenderDowntime  time.Duration
	// MaxFaults bounds total injected faults (crashes + defender kills
	// + reboots); 0 is unlimited.
	MaxFaults int
}

// Enabled reports whether any chaos axis is active.
func (c Config) Enabled() bool {
	return c.CrashEvery > 0 || c.RebootAt > 0 || c.DefenderKillEvery > 0
}

// DefenderLifecycle is what the engine bounces: defense.Bouncer
// implements it. Kill simulates the defender process dying; Restore
// brings a new incarnation up (warm or cold is the lifecycle's choice).
type DefenderLifecycle interface {
	Kill()
	Restore() error
}

// Stats is the engine's fault ledger.
type Stats struct {
	// Crashes counts service/app process kills.
	Crashes int
	// DefenderKills / DefenderRestores count defender bounces.
	DefenderKills    int
	DefenderRestores int
	// Reboots counts injected system_server soft reboots.
	Reboots int
}

// Engine schedules lifecycle faults on a device. Construct it after
// the workload actors are registered — chaos actors fire after
// same-instant workload actors, which keeps the zero-chaos schedule
// untouched — and before Scheduler.Run.
type Engine struct {
	dev       *device.Device
	sched     *workload.Scheduler
	cfg       Config
	lifecycle DefenderLifecycle
	rngState  uint64
	faults    int
	stats     Stats
}

// New builds the engine and registers its fault actors on the
// scheduler. Telemetry gauges are registered only when the config is
// enabled, so a zero-chaos engine never materializes a clone's lazy
// metrics registry.
func New(dev *device.Device, sched *workload.Scheduler, cfg Config, lifecycle DefenderLifecycle) *Engine {
	if cfg.DefenderDowntime == 0 {
		cfg.DefenderDowntime = 500 * time.Millisecond
	}
	e := &Engine{dev: dev, sched: sched, cfg: cfg, lifecycle: lifecycle, rngState: uint64(cfg.Seed)}
	if cfg.CrashEvery > 0 {
		sched.Add(&crashActor{e: e, due: dev.Clock().Now() + cfg.CrashEvery})
	}
	if cfg.DefenderKillEvery > 0 && lifecycle != nil {
		sched.Add(&defenderActor{e: e, due: dev.Clock().Now() + cfg.DefenderKillEvery})
	}
	if cfg.RebootAt > 0 {
		sched.At(cfg.RebootAt, e.reboot)
	}
	if cfg.Enabled() {
		reg := dev.Metrics()
		reg.GaugeFunc("jgre_chaos_crashes_total",
			"Service/app processes killed by the chaos engine.",
			func() float64 { return float64(e.stats.Crashes) })
		reg.GaugeFunc("jgre_chaos_defender_kills_total",
			"Defender processes killed by the chaos engine.",
			func() float64 { return float64(e.stats.DefenderKills) })
		reg.GaugeFunc("jgre_chaos_defender_restores_total",
			"Defender incarnations restored after a chaos kill.",
			func() float64 { return float64(e.stats.DefenderRestores) })
		reg.GaugeFunc("jgre_chaos_reboots_total",
			"system_server soft reboots injected by the chaos engine.",
			func() float64 { return float64(e.stats.Reboots) })
	}
	return e
}

// Stats returns the fault ledger.
func (e *Engine) Stats() Stats { return e.stats }

// exhausted reports whether MaxFaults has been reached.
func (e *Engine) exhausted() bool {
	return e.cfg.MaxFaults > 0 && e.faults >= e.cfg.MaxFaults
}

// draw is a splitmix64 step — stateless apart from the monotone
// counter, like the faults injector's per-record decisions.
func (e *Engine) draw() uint64 {
	e.rngState += 0x9e3779b97f4a7c15
	z := e.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// victims builds the current crash-victim pool in a deterministic
// order: alive dedicated hosts (in spawn order), then running
// installed apps (in uid order), then app-service owners (in name
// order) — deduped by pid so a process reachable through several views
// is drawn once.
func (e *Engine) victims() []*kernel.Process {
	var out []*kernel.Process
	seen := make(map[kernel.Pid]bool)
	add := func(p *kernel.Process) {
		if p == nil || !p.Alive() || seen[p.Pid()] {
			return
		}
		seen[p.Pid()] = true
		out = append(out, p)
	}
	for _, name := range e.dev.HostNames() {
		add(e.dev.Host(name))
	}
	if e.cfg.CrashApps {
		for _, a := range e.dev.Apps().Installed() {
			add(a.Proc())
		}
	}
	if e.cfg.CrashAppServices {
		for _, name := range e.dev.AppServiceNames() {
			if svc := e.dev.AppService(name); svc != nil {
				add(svc.Owner().Proc())
			}
		}
	}
	return out
}

// crashOne kills one drawn victim. The kernel's death path does the
// rest: binder nodes go dead, death links fire, retained JGRs release.
func (e *Engine) crashOne() {
	victims := e.victims()
	if len(victims) == 0 {
		return
	}
	v := victims[int(e.draw()%uint64(len(victims)))]
	e.dev.Kernel().Kill(v.Pid(), ReasonCrash)
	e.stats.Crashes++
	e.faults++
}

// reboot kills system_server, triggering the device's soft-reboot
// recovery synchronously.
func (e *Engine) reboot() {
	if e.exhausted() {
		return
	}
	ss := e.dev.SystemServer()
	if ss == nil || !ss.Alive() {
		return
	}
	e.dev.Kernel().Kill(ss.Pid(), ReasonReboot)
	e.stats.Reboots++
	e.faults++
}

// crashActor fires a service crash every CrashEvery.
type crashActor struct {
	e   *Engine
	due time.Duration
}

func (a *crashActor) Due() time.Duration { return a.due }
func (a *crashActor) Done() bool         { return a.e.exhausted() }
func (a *crashActor) Step() error {
	a.e.crashOne()
	a.due = a.e.dev.Clock().Now() + a.e.cfg.CrashEvery
	return nil
}

// defenderActor bounces the defender every DefenderKillEvery: the kill
// is immediate and the restore is a one-shot timer DefenderDowntime
// later — the blind window the checkpoint sweeps measure.
type defenderActor struct {
	e   *Engine
	due time.Duration
}

func (a *defenderActor) Due() time.Duration { return a.due }
func (a *defenderActor) Done() bool         { return a.e.exhausted() }
func (a *defenderActor) Step() error {
	e := a.e
	e.lifecycle.Kill()
	e.stats.DefenderKills++
	e.faults++
	e.sched.At(e.dev.Clock().Now()+e.cfg.DefenderDowntime, func() {
		if err := e.lifecycle.Restore(); err == nil {
			e.stats.DefenderRestores++
		}
	})
	a.due = e.dev.Clock().Now() + e.cfg.DefenderKillEvery
	return nil
}
