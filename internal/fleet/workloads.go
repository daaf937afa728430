// The three fleet workloads: a thin benign probe (throughput headline),
// a staged attack rollout (detection rate / time-to-recovery at fleet
// scale), and colluding attacker cells (multi-app attribution at fleet
// scale). Every trial derives all randomness from its per-device seed,
// so a trial's outcome is a pure function of (device shape, seed) — the
// engine's determinism contract.
package fleet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fleetDefense is the quick-scale defender shape every fleet trial uses
// (the delay experiments' thresholds: alarm at 400 new JGR entries,
// engage at 1,200).
func fleetDefense() defense.Config {
	return defense.Config{AlarmThreshold: 400, EngageThreshold: 1200}
}

// trialBudget bounds any single trial's scheduler steps — a safety net,
// not a tuning knob; detections land orders of magnitude earlier.
const trialBudget = 400_000

// probeMethods are the innocent calls the baseline probe rotates
// through. None of them retains (or even transiently takes) a global
// reference, so a probe trial never dirties system_server's
// copy-on-write JGR table — the property that keeps device turnaround,
// not trial work, the dominant cost of a probe trial.
var probeMethods = [3]string{"getState", "checkAccess", "noteEvent"}

// BaselineProbe is the benign fleet workload: one probe app firing a
// handful of innocent IPC calls at two system services and reading the
// device health counters back — the steady-state fleet heartbeat (the
// paper's Observation 1: benign JGR footprints are small and stable), and
// the workload the devices/sec headline is measured on. Counts and
// method choice come straight from the device seed's bits; the probe is
// too thin to justify seeding a full math/rand state.
func BaselineProbe() Workload {
	return Workload{
		Name: "fleet-baseline",
		Run: func(dev *device.Device, index int, seed int64) (Trial, error) {
			app, err := dev.Apps().Install("com.fleet.probe")
			if err != nil {
				return Trial{}, err
			}
			app.Start()
			clip, err := dev.NewClient(app, "clipboard")
			if err != nil {
				return Trial{}, err
			}
			audio, err := dev.NewClient(app, "audio")
			if err != nil {
				return Trial{}, err
			}
			bits := uint64(seed)
			calls := 6 + int(bits>>40&7)
			for i := 0; i < calls; i++ {
				c := clip
				if bits>>(i&31)&1 == 1 {
					c = audio
				}
				if err := c.Call(probeMethods[(i+int(bits>>35))%3]); err != nil {
					return Trial{}, err
				}
			}
			st := dev.Stats()
			return Trial{
				PeakJGR: int64(st.SystemServerPeakJGR),
				Steps:   int64(calls),
			}, nil
		},
	}
}

// rolloutWave reports whether the device at index is infected: the
// infected fraction ramps linearly from 0% at the head of the fleet to
// ~100% at the tail (a staged malware rollout), and the within-wave
// draw comes from the device seed's high bits so it is decorrelated
// from the trial's rand stream.
func rolloutWave(index, devices int, seed int64) bool {
	wave := index * 100 / devices
	roll := int((uint64(seed) >> 33) % 100)
	return roll < wave
}

// AttackRollout is the staged-infection fleet workload over a fleet of
// the given width: each infected device runs a benign population plus
// one JGRE attacker under a quick-scale defender until the defender
// engages; clean devices run the population alone for a bounded virtual
// horizon (false-alarm watch).
func AttackRollout(devices int) Workload {
	target := catalog.FastestInterfaces(1)[0]
	return Workload{
		Name: "fleet-attack-rollout",
		Run: func(dev *device.Device, index int, seed int64) (Trial, error) {
			infected := rolloutWave(index, devices, seed)
			def, err := defense.New(dev, fleetDefense())
			if err != nil {
				return Trial{}, err
			}
			sched := workload.NewScheduler(dev)
			if _, err := workload.Population(dev, sched, 3, seed, 2*time.Second); err != nil {
				return Trial{}, err
			}
			var evil string
			var evilUids []int32
			if infected {
				app, err := dev.Apps().Install("com.evil.app")
				if err != nil {
					return Trial{}, err
				}
				app.Start()
				atk, err := workload.NewAttacker(dev, app, target)
				if err != nil {
					return Trial{}, err
				}
				evil = app.Package()
				evilUids = []int32{int32(app.Uid())}
				sched.Add(atk)
			}
			var steps int
			if infected {
				steps = sched.Run(func() bool { return len(def.History()) > 0 }, trialBudget)
			} else {
				horizon := dev.Clock().Now() + 20*time.Second
				steps = sched.Run(func() bool { return dev.Clock().Now() >= horizon }, trialBudget)
			}
			t := Trial{Infected: infected, Steps: int64(steps)}
			fillDetection(&t, def, func(pkg string) bool { return pkg == evil })
			t.PeakJGR = int64(dev.Stats().SystemServerPeakJGR)
			fillCausal(&t, dev, evilUids, t.ColludersCaught > 0)
			return t, nil
		},
	}
}

// colluderCell reports whether the device at index hosts a colluder
// cell (about a quarter of the fleet does).
func colluderCell(seed int64) bool {
	return (uint64(seed)>>33)%4 == 0
}

// Colluders is the Fig. 9 scenario at fleet scale: a quarter of the
// devices host a two-app colluder cell dripping registrations on the two
// fastest interfaces next to an IPC-heavy-but-benign bystander; the
// rollup separates colluders caught from innocent kills.
func Colluders() Workload {
	targets := catalog.FastestInterfaces(2)
	return Workload{
		Name: "fleet-colluders",
		Run: func(dev *device.Device, index int, seed int64) (Trial, error) {
			cell := colluderCell(seed)
			def, err := defense.New(dev, fleetDefense())
			if err != nil {
				return Trial{}, err
			}
			sched := workload.NewScheduler(dev)
			if _, err := workload.Population(dev, sched, 3, seed, 2*time.Second); err != nil {
				return Trial{}, err
			}
			var steps int
			var evilUids []int32
			if cell {
				for j, tgt := range targets {
					app, err := dev.Apps().Install(fmt.Sprintf("com.collude.app%d", j))
					if err != nil {
						return Trial{}, err
					}
					app.Start()
					atk, err := workload.NewAttacker(dev, app, tgt)
					if err != nil {
						return Trial{}, err
					}
					evilUids = append(evilUids, int32(app.Uid()))
					sched.Add(atk)
				}
				chatty, err := dev.Apps().Install("com.chatty.bystander")
				if err != nil {
					return Trial{}, err
				}
				chatty.Start()
				by, err := workload.NewChattyApp(dev, chatty, seed+1)
				if err != nil {
					return Trial{}, err
				}
				sched.Add(by)
				steps = sched.Run(func() bool { return len(def.History()) > 0 }, trialBudget)
			} else {
				horizon := dev.Clock().Now() + 20*time.Second
				steps = sched.Run(func() bool { return dev.Clock().Now() >= horizon }, trialBudget)
			}
			t := Trial{Infected: cell, Steps: int64(steps)}
			fillDetection(&t, def, func(pkg string) bool { return strings.HasPrefix(pkg, "com.collude.") })
			t.PeakJGR = int64(dev.Stats().SystemServerPeakJGR)
			fillCausal(&t, dev, evilUids, t.ColludersCaught > 0)
			return t, nil
		},
	}
}

// fillCausal derives the trial's causal-tracing stats from the device's
// flight recorder: the first malicious binder transaction (a transact
// span carrying an attacker uid), the first attacker-attributed JGR add,
// and the first defender engagement window. No-op (all fields zero) when
// tracing is off, so untraced fleet envelopes are unchanged. Ring
// eviction can lose the chain's head; the trial only claims TraceCausal
// when the full ordered chain survived.
func fillCausal(t *Trial, dev *device.Device, attackerUids []int32, attributed bool) {
	rec := dev.Recorder()
	if !rec.Enabled() {
		return
	}
	t.SpansDropped = int64(rec.Dropped())
	evilUid := func(uid int32) bool {
		for _, u := range attackerUids {
			if u == uid {
				return true
			}
		}
		return false
	}
	const unset = time.Duration(-1)
	firstTx, firstEv, firstWin := unset, unset, unset
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.SpanTransact:
			if firstTx == unset && evilUid(s.Uid) {
				firstTx = s.Start
			}
		case trace.SpanJGRAdd:
			if firstEv == unset && evilUid(s.Uid) {
				firstEv = s.Start
			}
		case trace.SpanDefenderWindow:
			if firstWin == unset {
				firstWin = s.Start
			}
		}
	}
	if firstTx == unset || firstEv == unset || firstWin == unset ||
		firstEv < firstTx || firstWin < firstEv {
		return
	}
	t.TraceCausal = true
	t.AttackToEvidenceMS = int64((firstEv - firstTx) / time.Millisecond)
	t.EvidenceToDetectMS = int64((firstWin - firstEv) / time.Millisecond)
	t.AttackToDetectMS = int64((firstWin - firstTx) / time.Millisecond)
	t.Attributed = attributed
}

// fillDetection folds the defender's first engagement into the trial:
// detection and recovery timing, and the kill list split into guilty
// (per the workload's predicate) and innocent.
func fillDetection(t *Trial, def *defense.Defender, guilty func(pkg string) bool) {
	hist := def.History()
	if len(hist) == 0 {
		return
	}
	det := hist[0]
	if t.Infected {
		t.Detected = true
		t.DetectMS = int64(det.EngagedAt / time.Millisecond)
		if det.Recovered {
			t.Recovered = true
			t.RecoverMS = int64((det.EngagedAt + det.AnalysisTime) / time.Millisecond)
		}
	} else {
		t.FalseAlarm = true
	}
	for _, pkg := range det.Killed {
		if guilty(pkg) {
			t.ColludersCaught++
		} else {
			t.InnocentKills++
		}
	}
}
