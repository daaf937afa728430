package main

import (
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/workload"
)

// span totals the wall time of every call into one layer and counts
// the calls.
type span struct {
	ns int64
	n  int64
}

func (s *span) add(d time.Duration) {
	s.ns += int64(d)
	s.n++
}

// perCall is the mean call time in the given unit (0 with no calls).
func (s span) perCall(unit time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / float64(unit)
}

// layer names one timed part of a trial.
type layer int

const (
	trialSetup   layer = iota // trial start → Scheduler.Run, defense.New included
	defenseNew                // defense.New
	clientCall                // one probe services.Client.Call
	deviceStats               // device.Stats at the end of a probe trial
	schedRun                  // whole Scheduler.Run calls
	attackerStep              // workload.Attacker Steps
	benignStep                // workload.BenignApp Steps
	engageStep                // the Step during which Defender.History grew
	rebootStep                // the Step during which SoftReboots went 0 → 1
	nLayers
)

// layers collects the traced run's timings, taken in this package
// around calls into each layer's public functions, and the per-device
// counters read after each trial. A nil *layers is the untraced run:
// every method is a no-op that reads no clock, so an untraced trial
// makes exactly the simulator calls a traced one does.
type layers struct {
	spans  [nLayers]span
	trials int64
	steps  int64
	// lastStep is the duration of the most recent actor Step; a trial's
	// stop predicate attributes it to engageStep or rebootStep when that
	// Step caused the event the predicate waits for.
	lastStep time.Duration

	transactions   uint64
	logRecords     uint64
	logRetained    uint64
	jgrAdds        uint64
	jgrPeak        int64
	gcCycles       uint64
	spansEmitted   uint64
	spansRetained  uint64
	engagements    int64
	recordsEngaged int64
	analysisSim    time.Duration
	kills          int64
	guiltyKills    int64
}

// now reads the clock, or nothing on the untraced run.
func (l *layers) now() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// since adds the time from t0 to layer k; no-op on the untraced run.
func (l *layers) since(k layer, t0 time.Time) {
	if l == nil {
		return
	}
	l.spans[k].add(time.Since(t0))
}

// actor wraps a workload actor so each Step is timed into layer k. On
// the untraced run it returns a unchanged.
func (l *layers) actor(a workload.Actor, k layer) workload.Actor {
	if l == nil {
		return a
	}
	return &timedActor{Actor: a, k: k, l: l}
}

// timedActor is a workload.Actor whose Step is timed; Due and Done pass
// through, so the scheduler orders and stops it exactly as the bare
// actor.
type timedActor struct {
	workload.Actor
	k layer
	l *layers
}

func (a *timedActor) Step() error {
	t0 := time.Now()
	err := a.Actor.Step()
	d := time.Since(t0)
	a.l.spans[a.k].add(d)
	a.l.lastStep = d
	return err
}

// run times one Scheduler.Run and counts its steps.
func (l *layers) run(sched *workload.Scheduler, stop func() bool, maxSteps int) int {
	if l == nil {
		return sched.Run(stop, maxSteps)
	}
	l.lastStep = 0
	t0 := time.Now()
	steps := sched.Run(stop, maxSteps)
	l.spans[schedRun].add(time.Since(t0))
	l.steps += int64(steps)
	return steps
}

// stopOn wraps a trial's stop predicate: the first time it holds, the
// Step that made it hold is added to layer k.
func (l *layers) stopOn(stop func() bool, k layer) func() bool {
	if l == nil {
		return stop
	}
	return func() bool {
		if !stop() {
			return false
		}
		l.spans[k].add(l.lastStep)
		return true
	}
}

// self is Scheduler.Run time not spent in actor Steps: the event loop
// and the trial's stop predicate.
func (l *layers) self() int64 {
	return l.spans[schedRun].ns - l.spans[attackerStep].ns - l.spans[benignStep].ns
}

// covered is the trial time inside a timed part; the parts are
// disjoint, and Scheduler.Run contains the actor Steps.
func (l *layers) covered() int64 {
	return l.spans[trialSetup].ns + l.spans[clientCall].ns + l.spans[deviceStats].ns + l.spans[schedRun].ns
}

// deviceMark holds a device's cumulative counters at trial start, so
// the traced run can report what one trial added on a recycled device.
type deviceMark struct {
	vm       *art.VM
	tx       uint64
	log      binder.LogStats
	jgrAdds  uint64
	gcCycles uint64
}

// begin marks the counters a trial will move; zero on the untraced run.
// The system_server VM is held through the process current at trial
// start, which a soft reboot replaces, so end reads the incarnation the
// trial drove.
func (l *layers) begin(dev *device.Device) deviceMark {
	if l == nil {
		return deviceMark{}
	}
	vm := dev.SystemServer().VM()
	return deviceMark{
		vm:       vm,
		tx:       dev.Driver().TotalTransactions(),
		log:      dev.Driver().LogStats(),
		jgrAdds:  vm.TotalGlobalAdds(),
		gcCycles: vm.GCCycles(),
	}
}

// end adds what the trial moved since m to the per-device counters.
func (l *layers) end(dev *device.Device, m deviceMark) {
	if l == nil {
		return
	}
	l.trials++
	log := dev.Driver().LogStats()
	records := log.Seq - m.log.Seq
	dropped := log.Dropped() - m.log.Dropped()
	l.transactions += dev.Driver().TotalTransactions() - m.tx
	l.logRecords += records
	l.logRetained += records - dropped
	l.jgrAdds += m.vm.TotalGlobalAdds() - m.jgrAdds
	l.gcCycles += m.vm.GCCycles() - m.gcCycles
	l.jgrPeak += int64(m.vm.PeakGlobalRefCount())
	if rec := dev.Recorder(); rec.Enabled() {
		l.spansEmitted += rec.Total()
		l.spansRetained += uint64(rec.Len())
	}
}

// engaged records the defender's first engagement of a trial.
func (l *layers) engaged(det defense.Detection, guilty int) {
	if l == nil {
		return
	}
	l.engagements++
	l.recordsEngaged += int64(det.Records)
	l.analysisSim += det.AnalysisTime
	l.kills += int64(len(det.Killed))
	l.guiltyKills += int64(guilty)
}
