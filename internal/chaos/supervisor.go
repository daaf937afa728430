package chaos

import (
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// SupervisorConfig tunes the restart policy — the same shape Android's
// init applies to persistent services (restart after a delay, back off
// on crash loops, forget the backoff once the service stays up).
type SupervisorConfig struct {
	// InitialBackoff is the delay before the first restart attempt
	// (0 → 200ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 → 10s).
	MaxBackoff time.Duration
	// StableAfter is how long a service must stay up for its backoff to
	// reset to InitialBackoff (0 → 30s). A crash within StableAfter of
	// the previous restart doubles the delay instead.
	StableAfter time.Duration
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.InitialBackoff == 0 {
		c.InitialBackoff = 200 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 10 * time.Second
	}
	if c.StableAfter == 0 {
		c.StableAfter = 30 * time.Second
	}
	return c
}

// SupervisorStats is the recovery ledger.
type SupervisorStats struct {
	// Restarts / Failures count completed restart attempts.
	Restarts int
	Failures int
	// Pending is how many targets are currently down awaiting restart.
	Pending int
	// LastBackoff is the most recently scheduled restart delay.
	LastBackoff time.Duration
	// TotalDowntime accumulates death→successful-restart gaps across all
	// targets.
	TotalDowntime time.Duration
}

const (
	targetHost = "host"
	targetApp  = "app"
)

// target is one supervised process: a dedicated service host, or an
// app-service owner (which may export several registry services).
type target struct {
	kind     string
	name     string   // host name, or owner package
	services []string // app-service names (targetApp only)
	backoff  time.Duration
	lastUp   time.Duration // virtual time of the last (re)start
	downAt   time.Duration
	pending  bool
}

// Supervisor watches kernel kill events for the device's service hosts
// and app-service owners and restarts them through the device's
// recovery APIs after an exponential per-target backoff. Restart timers
// run on the workload scheduler's virtual-time queue, so supervised
// recovery is as deterministic as the chaos that caused it.
//
// Deaths it deliberately ignores: soft-reboot casualties (the device's
// reboot recovery re-registers everything itself), LMK evictions
// (re-spawning a memory-pressure victim would just thrash the LMK), and
// defender force-stops (the supervisor must not fight the defense).
type Supervisor struct {
	dev     *device.Device
	sched   *workload.Scheduler
	cfg     SupervisorConfig
	abort   func() bool
	targets map[string]*target
	stats   SupervisorStats
}

// NewSupervisor builds the supervisor, snapshots the supervised target
// set (current hosts + app-service owners), and hooks the kernel's kill
// notifications.
func NewSupervisor(dev *device.Device, sched *workload.Scheduler, cfg SupervisorConfig) *Supervisor {
	s := &Supervisor{
		dev:     dev,
		sched:   sched,
		cfg:     cfg.withDefaults(),
		targets: make(map[string]*target),
	}
	for _, name := range dev.HostNames() {
		s.targets[name] = &target{kind: targetHost, name: name}
	}
	for _, svcName := range dev.AppServiceNames() {
		svc := dev.AppService(svcName)
		if svc == nil {
			continue
		}
		pkg := svc.Owner().Package()
		t := s.targets[pkg]
		if t == nil {
			t = &target{kind: targetApp, name: pkg}
			s.targets[pkg] = t
		}
		t.services = append(t.services, svcName)
	}
	dev.Kernel().OnKill(s.onKill)
	reg := dev.Metrics()
	reg.GaugeFunc("jgre_supervisor_restarts_total",
		"Supervised services restarted.",
		func() float64 { return float64(s.stats.Restarts) })
	reg.GaugeFunc("jgre_supervisor_failures_total",
		"Supervised restart attempts that failed.",
		func() float64 { return float64(s.stats.Failures) })
	reg.GaugeFunc("jgre_supervisor_pending",
		"Supervised targets currently down awaiting restart.",
		func() float64 { return float64(s.stats.Pending) })
	reg.GaugeFunc("jgre_supervisor_backoff_seconds",
		"Most recently scheduled restart backoff.",
		func() float64 { return s.stats.LastBackoff.Seconds() })
	return s
}

// SetAbort installs a cancellation probe; a true return abandons
// pending restarts instead of touching the device.
func (s *Supervisor) SetAbort(fn func() bool) { s.abort = fn }

func (s *Supervisor) aborted() bool { return s.abort != nil && s.abort() }

// Stats returns the recovery ledger.
func (s *Supervisor) Stats() SupervisorStats { return s.stats }

// onKill reacts to a supervised target's death by scheduling a restart.
func (s *Supervisor) onKill(p *kernel.Process, reason string) {
	if strings.HasPrefix(reason, "soft reboot") ||
		strings.HasPrefix(reason, "lmk") ||
		strings.HasPrefix(reason, "jgre-defender") {
		return
	}
	t := s.targets[p.Name()]
	if t == nil || t.pending {
		return
	}
	now := s.dev.Clock().Now()
	if t.lastUp > 0 && now-t.lastUp < s.cfg.StableAfter {
		t.backoff *= 2
		if t.backoff > s.cfg.MaxBackoff {
			t.backoff = s.cfg.MaxBackoff
		}
	} else {
		t.backoff = s.cfg.InitialBackoff
	}
	t.pending = true
	t.downAt = now
	s.stats.Pending++
	s.stats.LastBackoff = t.backoff
	s.sched.At(now+t.backoff, func() { s.restart(t) })
}

// restart performs one scheduled restart attempt.
func (s *Supervisor) restart(t *target) {
	t.pending = false
	s.stats.Pending--
	if s.aborted() {
		return
	}
	if s.alive(t) {
		// A soft reboot (or another recovery path) revived the target while
		// we were backing off; nothing to do.
		t.lastUp = s.dev.Clock().Now()
		return
	}
	var err error
	if t.kind == targetHost {
		err = s.dev.RestartHost(t.name)
	} else {
		for _, svcName := range t.services {
			if rerr := s.dev.RestartAppService(svcName); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	now := s.dev.Clock().Now()
	if err != nil {
		s.stats.Failures++
		// Retry with a doubled (capped) backoff rather than abandoning the
		// target.
		t.backoff *= 2
		if t.backoff > s.cfg.MaxBackoff {
			t.backoff = s.cfg.MaxBackoff
		}
		t.pending = true
		s.stats.Pending++
		s.stats.LastBackoff = t.backoff
		s.sched.At(now+t.backoff, func() { s.restart(t) })
		return
	}
	s.stats.Restarts++
	s.stats.TotalDowntime += now - t.downAt
	t.lastUp = now
}

// alive reports whether the target's process is currently running.
func (s *Supervisor) alive(t *target) bool {
	if t.kind == targetHost {
		p := s.dev.Host(t.name)
		return p != nil && p.Alive()
	}
	for _, svcName := range t.services {
		svc := s.dev.AppService(svcName)
		if svc == nil || !svc.Stub().IsAlive() {
			return false
		}
	}
	return true
}
