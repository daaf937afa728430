// Package defense implements the paper's JGRE countermeasure (§V): a
// runtime extension that watches each monitored process's JGR table
// (alarm at 4,000 new entries, defender engagement at 12,000), a binder
// driver log consumed through /proc/jgre_ipc_log, the correlation scoring
// of Algorithm 1 implemented as a streaming columnar sweep over the
// bucketed delay axis, and an LMK-style
// recovery loop that force-stops the top-scoring apps until the victim's
// JGR count returns to normal.
package defense

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Defaults from the paper.
const (
	// DefaultAlarmThreshold is the new-JGR count at which the runtime
	// extension starts recording event times (§V-B: "Once the number of
	// created JGR entries exceeds 4,000, it starts to record").
	DefaultAlarmThreshold = 4000
	// DefaultEngageThreshold is the new-JGR count at which the runtime
	// notifies the JGRE Defender (§V-B: "delivers the information to
	// JGRE defender when the number of new JGR entries exceeds 12,000").
	DefaultEngageThreshold = 12000
	// DefaultDelta is Δ, the bounded deviation between an IPC call and
	// its JGR creation (§V-C: "we set Δ to the average value of all
	// system services, i.e., 1.8 ms").
	DefaultDelta = 1800 * time.Microsecond
	// DefaultMaxDelay bounds the plausible IPC→JGR delay considered by
	// the correlator; pairs further apart cannot be cause and effect.
	DefaultMaxDelay = 250 * time.Millisecond
	// delayBucket is the granularity of Algorithm 1's candidate-delay
	// axis.
	delayBucket = 100 * time.Microsecond
	// recordCost is the per-event overhead of JGR recording once past
	// the alarm threshold (§V-D2 measures ≈1 µs).
	recordCost = time.Microsecond

	// DefaultLogReadRetries / retryBackoff govern the hardened evidence
	// read: a failed /proc/jgre_ipc_log read is retried with doubling
	// (virtual-time) backoff, starting at retryBackoff, before the
	// defender falls back to evidence-free attribution.
	DefaultLogReadRetries = 3
	retryBackoff          = 2 * time.Millisecond
	// analysisCostBase + analysisCostPerRecord × the targeted
	// interface's AnalysisWeight is the virtual time one Algorithm 1 run
	// charges, reproducing the §V-D1 response delays.
	analysisCostBase      = 50 * time.Millisecond
	analysisCostPerRecord = 60 * time.Microsecond
	// DefaultMinCoverage is the fraction of generated log records that
	// must survive to the defender for Algorithm 1's ranking to be
	// trusted; below it the defender blends in per-uid retained-ref
	// attribution from the driver.
	DefaultMinCoverage = 0.35
	// DefaultInnocentKillBudget is the low-confidence kill bound the
	// robustness scenarios configure. The guard itself is opt-in
	// (Config.InnocentKillBudget zero leaves the paper's unbounded kill
	// loop intact) so the faithful-reproduction scenarios are unchanged.
	DefaultInnocentKillBudget = 2
	// maxAnalysisRestarts bounds how often a mid-analysis defender
	// failure is retried before giving up on correlation scoring.
	maxAnalysisRestarts = 2
)

// Config parameterizes a Defender. Zero values select the paper's
// defaults.
type Config struct {
	AlarmThreshold  int
	EngageThreshold int
	MaxDelay        time.Duration
	// KeepRaw stores a copy of the scored evidence window and the JGR
	// add times on each Detection, letting experiments re-run Algorithm 1
	// with different Δ values (Fig. 9's sweep) or configurations.
	KeepRaw bool
	// DisablePathClassification turns off the §VI countermeasure against
	// multi-path attacks (classifying an interface's calls by observable
	// execution path — here the transaction signature/size — before
	// scoring, then summing the per-path maxima). Used by the ablation
	// study only.
	DisablePathClassification bool

	// InnocentKillBudget bounds force-stops of low-confidence
	// candidates — scores an order of magnitude under the leader — per
	// engagement. 0 keeps the paper's unbounded kill loop; positive
	// allows that many low-confidence kills; negative allows none.
	InnocentKillBudget int
}

func (c Config) withDefaults() Config {
	if c.AlarmThreshold == 0 {
		c.AlarmThreshold = DefaultAlarmThreshold
	}
	if c.EngageThreshold == 0 {
		c.EngageThreshold = DefaultEngageThreshold
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = DefaultMaxDelay
	}
	return c
}

// AppScore is one app's Algorithm-1 result: the number of suspicious IPC
// calls supporting a consistent delay hypothesis, summed over interface
// types.
type AppScore struct {
	Uid     kernel.Uid
	Package string
	// Score is the jgre_score: Σ over IPC types of the best-supported
	// delay bucket's count.
	Score int64
	// ByType breaks the score down per interface ("service.method").
	ByType map[string]int64
}

// Detection describes one defender engagement.
type Detection struct {
	Victim       string
	VictimPid    kernel.Pid
	EngagedAt    time.Duration
	AnalysisTime time.Duration
	Records      int
	Scores       []AppScore // descending by score
	Killed       []string   // packages force-stopped, in order
	Recovered    bool
	// RawWindow/RawAddTimes are kept only when Config.KeepRaw is set:
	// the app-uid evidence window exactly as Algorithm 1 scored it (after
	// skew correction) and the victim's recorded JGR add times.
	RawWindow   binder.LogColumns
	RawAddTimes []time.Duration

	// Degradation diagnostics. On the paper's lossless chain these are
	// ReadRetries=0, ReadFailed=false, AnalysisRestarts=0,
	// DroppedRecords=0, Coverage=1, EffectiveDelta=DefaultDelta,
	// FallbackUsed=false, GuardStops=0.

	// ReadRetries is how many evidence-read retries this engagement
	// needed; ReadFailed marks the read never succeeding.
	ReadRetries int
	ReadFailed  bool
	// AnalysisRestarts counts mid-analysis failures that were retried.
	AnalysisRestarts int
	// DroppedRecords is how many driver log records were lost (drop
	// faults + ring overflow) in this engagement's window; Coverage is
	// the delivered/generated fraction for the same window.
	DroppedRecords uint64
	Coverage       float64
	// EffectiveDelta is the Δ Algorithm 1 actually ran with, after
	// adaptive widening under measured timestamp jitter.
	EffectiveDelta time.Duration
	// FallbackUsed marks that per-uid retained-ref attribution was
	// blended into Scores; Correlation then preserves the pure
	// Algorithm-1 ranking (nil when correlation itself failed).
	FallbackUsed bool
	Correlation  []AppScore
	// GuardStops counts kill candidates skipped by the innocent-kill
	// guard after its budget was exhausted.
	GuardStops int
}

// Defender is the JGRE Defender system service.
type Defender struct {
	dev *device.Device
	cfg Config

	monitors map[kernel.Pid]*monitor
	history  []Detection
	// lastStats is the driver's telemetry counters at the end of the
	// previous engagement, delimiting the current evidence window.
	lastStats binder.LogStats
	// corrRounds counts this defender's completed poll-loop scores; the
	// reuse counter counts rounds past the first.
	corrRounds uint64
	// met holds the defender's instrument handles on the device registry.
	met defenderMetrics
	// OnDetection, if set, observes each engagement after recovery.
	OnDetection func(Detection)
	// OnCheckpoint, if set, observes the poll-window-boundary checkpoint
	// written at the end of each engagement — the crash-safe state a
	// restarted defender resumes from (see Restore).
	OnCheckpoint func(*Checkpoint)

	// dead marks a killed defender (see Kill): VM hooks cannot be
	// removed, so the stale monitors' onJGR callbacks go inert through
	// this flag instead.
	dead bool
	// abort, if set, is polled during long defender waits (evidence-read
	// retry backoff) so a cancelled scenario context stops the poll loop
	// promptly instead of burning the full retry schedule.
	abort func() bool
	// lastDelta is the effective Δ of the most recent engagement — the
	// adaptive-Δ state carried across defender restarts.
	lastDelta time.Duration
	// restored carries the health counters of a pre-crash incarnation so
	// cumulative telemetry survives a defender bounce.
	restored device.DefenderHealth
}

// defenderMetrics are the defense layer's instruments: engagement
// counters, degradation ledgers, last-window coverage and the
// per-phase virtual-time histograms behind the poll-window spans.
type defenderMetrics struct {
	engagements      *telemetry.Counter
	kills            *telemetry.Counter
	fallbacks        *telemetry.Counter
	readRetries      *telemetry.Counter
	analysisRestarts *telemetry.Counter
	guardStops       *telemetry.Counter
	corrReuse        *telemetry.Counter
	coverage         *telemetry.Gauge

	// Correlator counters: how Algorithm 1's streaming sweep spent its
	// work — types scored, types early-exited before bucketing, and the
	// (call, add) pairs that did reach the difference-array sweep.
	corrTypesScored  *telemetry.Counter
	corrTypesSkipped *telemetry.Counter
	corrShortcuts    *telemetry.Counter
	corrPairsSwept   *telemetry.Counter

	checkpoints *telemetry.Counter
	restores    *telemetry.Counter

	phaseRead      *telemetry.Histogram
	phaseCorrelate *telemetry.Histogram
	phaseScore     *telemetry.Histogram
	phaseDecide    *telemetry.Histogram
}

func newDefenderMetrics(reg *telemetry.Registry) defenderMetrics {
	phase := func(name string) *telemetry.Histogram {
		return reg.Histogram(fmt.Sprintf("jgre_defender_phase_seconds{phase=%q}", name),
			"Virtual-time spent per poll-window phase.", nil)
	}
	return defenderMetrics{
		engagements: reg.Counter("jgre_defender_engagements_total",
			"Defender engagements (poll windows that ran Algorithm 1)."),
		kills: reg.Counter("jgre_defender_kills_total",
			"Apps force-stopped by the recovery loop."),
		fallbacks: reg.Counter("jgre_defender_fallbacks_total",
			"Engagements that blended in retained-ref fallback attribution."),
		readRetries: reg.Counter("jgre_defender_read_retries_total",
			"Evidence-read retries across all engagements."),
		analysisRestarts: reg.Counter("jgre_defender_analysis_restarts_total",
			"Mid-analysis failures that were retried."),
		guardStops: reg.Counter("jgre_defender_guard_stops_total",
			"Kill candidates skipped by the innocent-kill guard."),
		corrReuse: reg.Counter("jgre_defender_correlator_reuse_total",
			"Poll-loop scores after the defender's first (its checkpoint carries the count across a restart)."),
		corrTypesScored: reg.Counter("jgre_defender_correlator_types_scored_total",
			"Interface types whose best-supported delay bucket contributed a nonzero score."),
		corrTypesSkipped: reg.Counter("jgre_defender_correlator_types_skipped_total",
			"Interface types early-exited with no (call, JGR-add) pair in the delay window."),
		corrShortcuts: reg.Counter("jgre_defender_correlator_span_shortcuts_total",
			"Interface types resolved by the tight-span bound without a bucket sweep."),
		corrPairsSwept: reg.Counter("jgre_defender_correlator_bucket_pairs_total",
			"(call, JGR-add) pairs enumerated into the difference-array sweep."),
		checkpoints: reg.Counter("jgre_defender_checkpoints_total",
			"Poll-window-boundary checkpoints written."),
		restores: reg.Counter("jgre_defender_restores_total",
			"Defender restarts that resumed from a checkpoint."),
		coverage: reg.Gauge("jgre_defender_coverage",
			"Delivered/generated record fraction of the latest engagement window."),
		phaseRead:      phase("read"),
		phaseCorrelate: phase("correlate"),
		phaseScore:     phase("score"),
		phaseDecide:    phase("decide"),
	}
}

// observeCorrelation flushes one score call's correlator stats. The
// instruments are nil only on a zero-value Defender, which New never
// produces; the guard keeps hand-rolled test defenders safe.
func (m *defenderMetrics) observeCorrelation(st corrStats) {
	if m.corrTypesScored == nil {
		return
	}
	m.corrTypesScored.Add(st.scored)
	m.corrTypesSkipped.Add(st.skipped)
	m.corrShortcuts.Add(st.shortcuts)
	m.corrPairsSwept.Add(st.pairs)
}

// monitor is the per-process runtime extension.
type monitor struct {
	d         *Defender
	proc      *kernel.Process
	baseline  int
	recording bool
	engaged   bool
	// eng is the engagement storage the monitor borrowed on its first
	// recorded add; nil while it is armed and has recorded nothing.
	eng *engagement
	// responding guards against re-entrant engagement while the defender
	// is already killing apps for this victim.
	responding bool
}

// storage returns the monitor's engagement storage, borrowing it from
// the store if the monitor holds none.
func (m *monitor) storage() *engagement {
	if m.eng == nil {
		m.eng = borrowEngagement()
	}
	return m.eng
}

// New creates a defender on the device, enables IPC logging in the binder
// driver, and attaches the runtime extension to every system host process
// and published app-service owner. It re-attaches automatically after
// soft reboots.
func New(dev *device.Device, cfg Config) (*Defender, error) {
	d := &Defender{dev: dev, cfg: cfg.withDefaults(), monitors: make(map[kernel.Pid]*monitor)}
	if err := dev.Driver().EnableIPCLogging(); err != nil {
		return nil, fmt.Errorf("defense: enabling IPC logging: %w", err)
	}
	d.met = newDefenderMetrics(dev.Metrics())
	dev.SetDefenderHealth(d.health)
	d.attachAll()
	dev.OnReboot(func(string) { d.attachAll() })
	dev.OnServiceRestart(func(string, string) { d.attachAll() })
	return d, nil
}

// SetAbort installs a cancellation probe polled during long waits
// (evidence-read retry backoff): once it returns true the defender
// stops retrying and degrades to fallback attribution immediately,
// which is what lets a cancelled jgre-run shard abort mid-backoff.
func (d *Defender) SetAbort(fn func() bool) { d.abort = fn }

func (d *Defender) aborted() bool { return d.abort != nil && d.abort() }

// health is the device.Stats provider: cumulative degradation counters
// plus the most recent engagement's coverage/fallback verdict. The
// restored base carries a pre-crash incarnation's counters across a
// defender bounce.
func (d *Defender) health() device.DefenderHealth {
	h := d.restored
	h.Detections += len(d.history)
	for _, det := range d.history {
		h.ReadRetries += det.ReadRetries
		h.AnalysisRestarts += det.AnalysisRestarts
		h.GuardStops += det.GuardStops
	}
	if n := len(d.history); n > 0 {
		h.Coverage = d.history[n-1].Coverage
		h.FallbackUsed = d.history[n-1].FallbackUsed
	}
	return h
}

// attachAll monitors system_server, the dedicated service hosts and the
// app-service owner processes.
func (d *Defender) attachAll() {
	if d.dead {
		return
	}
	d.Monitor(d.dev.SystemServer())
	for _, name := range d.dev.AppServiceNames() {
		if svc := d.dev.AppService(name); svc != nil {
			if p := svc.Owner().Proc(); p != nil {
				d.Monitor(p)
			}
		}
	}
}

// Monitor attaches the runtime extension to a process. Idempotent per
// process instance.
func (d *Defender) Monitor(proc *kernel.Process) {
	if d.dead || proc == nil || !proc.Alive() {
		return
	}
	if _, ok := d.monitors[proc.Pid()]; ok {
		return
	}
	m := &monitor{d: d, proc: proc, baseline: proc.VM().GlobalRefCount()}
	d.monitors[proc.Pid()] = m
	proc.VM().AddJGRHook(m.onJGR)
	proc.NotifyDeath(func(p *kernel.Process) { delete(d.monitors, p.Pid()) })
}

// Monitored reports whether the process currently has a runtime monitor.
func (d *Defender) Monitored(pid kernel.Pid) bool {
	_, ok := d.monitors[pid]
	return ok
}

// History returns all detections so far.
func (d *Defender) History() []Detection {
	out := make([]Detection, len(d.history))
	copy(out, d.history)
	return out
}

// checkpointBoundary is how many recorded events accumulate between
// intra-window checkpoint flushes. Counting events (not virtual time)
// keeps the boundary deterministic and free when no OnCheckpoint
// observer is installed.
const checkpointBoundary = 64

// onJGR is the runtime-extension hook. The dead check comes before
// everything — including the recordCost clock advance — because VM
// hooks cannot be unregistered: a killed defender's stale hooks must be
// completely inert or they would double-charge virtual time next to the
// restored incarnation's live hooks.
func (m *monitor) onJGR(ev art.JGREvent) {
	if m.d.dead || !m.proc.Alive() {
		return
	}
	net := ev.Count - m.baseline
	if net < 0 {
		// The table shrank below the attach-time baseline (mass
		// releases); track the lower level.
		m.baseline = ev.Count
		net = 0
	}
	cfg := m.d.cfg
	if !m.recording && net > cfg.AlarmThreshold {
		m.recording = true
	}
	if m.recording && ev.Op == art.OpAdd {
		// §V-D2: recording costs ≈1 µs per operation past the alarm.
		m.d.dev.Clock().Advance(recordCost)
		e := m.storage()
		e.addTimes = append(e.addTimes, ev.Time)
		// Poll-window boundary inside a recording window: every
		// checkpointBoundary events the accumulated evidence is flushed, so
		// a warm-restored defender resumes mid-window instead of
		// re-baselining at the attack-inflated count.
		if m.d.OnCheckpoint != nil && len(e.addTimes)%checkpointBoundary == 0 {
			m.d.met.checkpoints.Inc()
			m.d.OnCheckpoint(m.d.Checkpoint())
		}
	}
	if m.recording && !m.engaged && !m.responding && net > cfg.EngageThreshold {
		m.engaged = true
		m.respond()
	}
	if m.recording && net <= cfg.AlarmThreshold/2 {
		// Pressure receded on its own (e.g. the offender died).
		m.reset()
	}
}

// reset re-arms the monitor around the current table size and returns
// its engagement storage to the store.
func (m *monitor) reset() {
	m.baseline = m.proc.VM().GlobalRefCount()
	m.recording = false
	m.engaged = false
	if m.eng != nil {
		m.eng.release()
		m.eng = nil
	}
}

// respond runs Algorithm 1 and the recovery loop for this victim,
// degrading gracefully when the telemetry chain misbehaves: retried
// evidence reads, skew correction and Δ widening on jittered
// timestamps, bounded analysis restarts, and retained-ref fallback
// attribution when too much evidence is missing.
func (m *monitor) respond() {
	m.responding = true
	defer func() { m.responding = false }()
	d := m.d
	e := m.storage()
	det := Detection{
		Victim:         m.proc.Name(),
		VictimPid:      m.proc.Pid(),
		EngagedAt:      d.dev.Clock().Now(),
		Coverage:       1,
		EffectiveDelta: DefaultDelta,
	}

	err := d.readWindowWithRetry(&det, m.proc.Pid(), &e.window)
	// Phase marks for the poll-window span, all in virtual time: a phase
	// that advanced no virtual time honestly measures zero (the in-memory
	// score step, most decide steps).
	tRead := d.dev.Clock().Now()
	tCorrelate, tScore := tRead, tRead

	// Window telemetry health: what fraction of the records the driver
	// generated since the last engagement actually survived to the file.
	stats := d.dev.Driver().LogStats()
	if gen := stats.Seq - d.lastStats.Seq; gen > 0 {
		delivered := stats.Delivered() - d.lastStats.Delivered()
		det.DroppedRecords = gen - delivered
		det.Coverage = float64(delivered) / float64(gen)
	}

	scored := false
	if err == nil {
		w := &e.window
		det.Records = w.Len()
		correctSkew(w, det.EngagedAt)
		det.EffectiveDelta = d.effectiveDelta(w)
		start := d.dev.Clock().Now()
		d.chargeAnalysis(w)
		survived := d.surviveAnalysisFaults(&det)
		tCorrelate = d.dev.Clock().Now()
		if survived {
			if d.corrRounds > 0 {
				d.met.corrReuse.Inc()
			}
			det.Scores = e.corr.score(d, w, e.addTimes, det.EffectiveDelta)
			d.corrRounds++
			scored = true
		}
		tScore = d.dev.Clock().Now()
		det.AnalysisTime = d.dev.Clock().Now() - start
		if d.cfg.KeepRaw {
			det.RawWindow = w.Clone()
			det.RawAddTimes = append([]time.Duration(nil), e.addTimes...)
		}
	} else {
		det.ReadFailed = true
	}

	// Fallback attribution: when the evidence was unreadable, analysis
	// kept dying, or too little of the stream survived, the correlation
	// ranking cannot be trusted on its own — blend in the driver's
	// ground-truth view of who is pinning the victim's JGR table.
	if !scored || det.Coverage < DefaultMinCoverage {
		det.Correlation = det.Scores
		det.Scores = d.fallbackScores(m.proc.Pid(), det.Correlation, det.Coverage, scored)
		det.FallbackUsed = true
	}

	// Recovery: force-stop top-ranked apps until the victim's table is
	// back under the alarm threshold (§V-A phase 3). Death recipients
	// release the killed apps' retained entries synchronously. The
	// innocent-kill guard bounds how many low-confidence candidates —
	// scores an order of magnitude under the leader — may be stopped.
	lowBudget := d.cfg.InnocentKillBudget // >0 bounded, 0 unbounded, <0 none
	guarded := lowBudget != 0
	if lowBudget < 0 {
		lowBudget = 0
	}
	var top int64
	if len(det.Scores) > 0 {
		top = det.Scores[0].Score
	}
	for _, s := range det.Scores {
		if m.proc.VM().GlobalRefCount()-m.baseline <= d.cfg.AlarmThreshold {
			break
		}
		lowConfidence := s.Score*10 < top
		if lowConfidence && guarded && lowBudget == 0 {
			det.GuardStops++
			continue
		}
		app := d.dev.Apps().ByUid(s.Uid)
		if app == nil || !app.Running() {
			continue
		}
		app.ForceStop("jgre-defender")
		det.Killed = append(det.Killed, s.Package)
		if lowConfidence && guarded {
			lowBudget--
		}
	}
	det.Recovered = m.proc.VM().GlobalRefCount()-m.baseline <= d.cfg.AlarmThreshold
	// Re-arming returns the engagement's storage, and it is reached only
	// when everything above returned normally (see engagement).
	if m.proc.Alive() {
		m.reset()
	}
	_ = d.dev.Driver().TruncateLog()
	d.lastStats = d.dev.Driver().LogStats()
	d.lastDelta = det.EffectiveDelta
	d.history = append(d.history, det)

	end := d.dev.Clock().Now()
	d.met.engagements.Inc()
	d.met.kills.Add(uint64(len(det.Killed)))
	d.met.readRetries.Add(uint64(det.ReadRetries))
	d.met.analysisRestarts.Add(uint64(det.AnalysisRestarts))
	d.met.guardStops.Add(uint64(det.GuardStops))
	if det.FallbackUsed {
		d.met.fallbacks.Inc()
	}
	d.met.coverage.Set(det.Coverage)
	// The poll window's four phases partition [EngagedAt, end]: the
	// histograms' sums grow by exactly the defender.window span's extent.
	d.met.phaseRead.Observe((tRead - det.EngagedAt).Seconds())
	d.met.phaseCorrelate.Observe((tCorrelate - tRead).Seconds())
	d.met.phaseScore.Observe((tScore - tCorrelate).Seconds())
	d.met.phaseDecide.Observe((end - tScore).Seconds())
	// Flight-recorder spans for the engagement. respond() runs
	// synchronously inside the AddGlobalRef that crossed the threshold,
	// inside the service handler — so the recorder's live context IS the
	// causal chain of the transaction that tripped the defender, and the
	// window/score/decision spans attach under it.
	if rec := d.dev.Recorder(); rec.Enabled() {
		ctxTrace, ctxSpan, ctxUid := rec.Context()
		pid := int32(m.proc.Pid())
		win := rec.NextSpanID()
		var topScore int64
		if len(det.Scores) > 0 {
			topScore = det.Scores[0].Score
		}
		rec.Emit(trace.SpanRecord{
			Trace: ctxTrace, ID: win, Parent: ctxSpan, Kind: trace.SpanDefenderWindow,
			Start: det.EngagedAt, End: end, Pid: pid, Uid: ctxUid, Val: int64(det.Records),
		})
		rec.Emit(trace.SpanRecord{
			Trace: ctxTrace, ID: rec.NextSpanID(), Parent: win, Kind: trace.SpanScore,
			Start: tCorrelate, End: tScore, Pid: pid, Uid: ctxUid, Val: topScore,
		})
		rec.Emit(trace.SpanRecord{
			Trace: ctxTrace, ID: rec.NextSpanID(), Parent: win, Kind: trace.SpanDecision,
			Start: tScore, End: end, Pid: pid, Uid: ctxUid, Val: int64(len(det.Killed)),
		})
	}

	if d.OnDetection != nil {
		d.OnDetection(det)
	}
	// Poll-window boundary: the engagement is fully accounted (window
	// delimiter captured, history appended), so this is the consistent
	// cut a restarted defender can resume from.
	if d.OnCheckpoint != nil {
		d.met.checkpoints.Inc()
		d.OnCheckpoint(d.Checkpoint())
	}
}

// readWindowWithRetry reads the victim's evidence window into w,
// retrying failed reads with doubling virtual-time backoff.
func (d *Defender) readWindowWithRetry(det *Detection, victim kernel.Pid, w *binder.LogColumns) error {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		err := d.readWindow(victim, w)
		if err == nil {
			return nil
		}
		if attempt >= DefaultLogReadRetries || d.aborted() {
			return err
		}
		det.ReadRetries++
		d.dev.Clock().Advance(backoff)
		backoff *= 2
	}
}

// surviveAnalysisFaults burns injected mid-analysis failures, charging
// each died run's base cost, and reports whether a run completed within
// the restart budget.
func (d *Defender) surviveAnalysisFaults(det *Detection) bool {
	in := d.dev.FaultInjector()
	if in == nil {
		return true
	}
	for attempt := 0; attempt <= maxAnalysisRestarts; attempt++ {
		if !in.AnalysisFault() {
			return true
		}
		det.AnalysisRestarts++
		d.dev.Clock().Advance(analysisCostBase)
	}
	return false
}

// correctSkew pulls a clock-skewed evidence window back into the
// defender's time domain: no kernel log record can postdate the read
// that returned it, so any overshoot is skew, and subtracting it
// restores the IPC→JGR delays Algorithm 1 correlates on. The window is
// defender-owned scratch, so the correction shifts its time column in
// place.
func correctSkew(w *binder.LogColumns, now time.Duration) {
	var maxT time.Duration
	for _, t := range w.Time {
		if t > maxT {
			maxT = t
		}
	}
	over := maxT - now
	if over <= 0 {
		return
	}
	for i := range w.Time {
		w.Time[i] -= over
	}
}

// effectiveDelta widens Δ under measured timestamp jitter. The log is
// written in sequence order on one monotonic clock, so any adjacent
// time inversion is pure timestamp noise; the largest inversion bounds
// (twice) the per-record perturbation, and widening Δ by it keeps the
// true delay inside the correlation window. On a healthy chain the
// measurement is zero and Δ is untouched.
func (d *Defender) effectiveDelta(w *binder.LogColumns) time.Duration {
	var inversion time.Duration
	for i := 1; i < w.Len(); i++ {
		if w.Seq[i] > w.Seq[i-1] {
			if back := w.Time[i-1] - w.Time[i]; back > inversion {
				inversion = back
			}
		}
	}
	if inversion == 0 {
		return DefaultDelta
	}
	eff := DefaultDelta + 2*inversion
	if eff > d.cfg.MaxDelay {
		eff = d.cfg.MaxDelay
	}
	return eff
}

// fallbackScores builds the degraded ranking: the driver's per-uid
// retained-reference attribution (ground truth about who is pinning the
// victim's table right now), blended with whatever correlation evidence
// survived, weighted by its coverage. With no usable correlation the
// ranking is attribution alone.
func (d *Defender) fallbackScores(victim kernel.Pid, corr []AppScore, coverage float64, scored bool) []AppScore {
	attr := d.dev.Driver().AttributeRetainedRefs(victim)
	merged := make(map[kernel.Uid]*AppScore, len(attr))
	//maporder:free fills a map
	for uid, n := range attr {
		s := &AppScore{Uid: uid, Score: int64(n), ByType: map[string]int64{"driver.retained_refs": int64(n)}}
		if a := d.dev.Apps().ByUid(uid); a != nil {
			s.Package = a.Package()
		}
		merged[uid] = s
	}
	if scored && coverage > 0 {
		for _, c := range corr {
			weighted := int64(coverage * float64(c.Score))
			if weighted == 0 {
				continue
			}
			s, ok := merged[c.Uid]
			if !ok {
				s = &AppScore{Uid: c.Uid, Package: c.Package, ByType: make(map[string]int64)}
				merged[c.Uid] = s
			}
			s.Score += weighted
			s.ByType["algorithm1.weighted"] = weighted
		}
	}
	out := make([]AppScore, 0, len(merged))
	//maporder:sorted by score, then uid, below
	for _, s := range merged {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Uid < out[j].Uid
	})
	return out
}

// readWindow flushes the driver log and fills w with the records
// aimed at the victim pid since the previous engagement, via the
// driver's columnar per-victim read (AppendLogColumnsSince).
// lastStats.Seq is a valid window delimiter because the previous
// engagement truncated the log before capturing it, so every flushed
// record newer than it belongs to this window. The defender reads as
// the system uid; the procfs ACL keeps apps from seeing or spoofing the
// stream.
func (d *Defender) readWindow(victim kernel.Pid, w *binder.LogColumns) error {
	w.Reset()
	if _, err := d.dev.Driver().FlushLog(); err != nil {
		return err
	}
	if _, err := d.dev.Driver().AppendLogColumnsSince(kernel.SystemUid, victim, d.lastStats.Seq, w); err != nil {
		return err
	}
	w.Filter(func(i int) bool { return kernel.IsAppUid(w.FromUid[i]) })
	return nil
}

// chargeAnalysis advances virtual time for the correlation run; per-record
// cost scales with the targeted interface's analysis weight, which is what
// makes MidiService.registerDeviceServer the slow outlier of §V-D1.
func (d *Defender) chargeAnalysis(win *binder.LogColumns) {
	total := analysisCostBase
	for i := 0; i < win.Len(); i++ {
		w := 1.0
		if t, ok := d.dev.Resolve(win.Handle[i], win.Code[i]); ok {
			switch {
			case t.Catalogued != nil:
				w = t.Catalogued.Cost.AnalysisWeight
			case t.AppRow != nil:
				w = t.AppRow.Cost.AnalysisWeight
			}
		}
		total += time.Duration(float64(analysisCostPerRecord) * w)
	}
	d.dev.Clock().Advance(total)
}

// ScoreWithDelta runs Algorithm 1 (§V-A) over an evidence window with
// an explicit Δ: for every app and every IPC interface type the app
// invoked, accumulate candidate delays [JGRTime−IPCTime,
// JGRTime−IPCTime+Δ] over the bucketed delay axis, take the
// best-supported bucket as that type's count of suspicious calls, and
// sum the counts into the app's jgre_score. Experiments rescore a
// KeepRaw Detection's RawWindow through it (the Fig. 9 Δ sweep, the
// multi-path ablations). It only reads w and scores on a correlator
// borrowed from the engagement store for the length of the call, so
// concurrent callers (Fig. 9 scores deltas across a worker pool) may
// share one window, each scoring in its own borrowed buffers.
func (d *Defender) ScoreWithDelta(w *binder.LogColumns, jgrAdds []time.Duration, delta time.Duration) []AppScore {
	e := borrowEngagement()
	scores := e.corr.score(d, w, jgrAdds, delta)
	e.release()
	return scores
}

// AverageDelta returns the catalog-wide mean jitter — how §V-C derives
// the 1.8 ms default Δ from measuring all services.
func AverageDelta() time.Duration {
	rows := catalog.Interfaces()
	var sum time.Duration
	for _, r := range rows {
		sum += r.Cost.Jitter
	}
	return sum / time.Duration(len(rows))
}

// FormatDetection renders one engagement as a human-readable report.
func FormatDetection(det Detection) string {
	s := fmt.Sprintf("JGRE detection at t=%.1fs: victim %s (pid %d)\n",
		det.EngagedAt.Seconds(), det.Victim, det.VictimPid)
	s += fmt.Sprintf("  %d IPC records analysed in %v\n", det.Records, det.AnalysisTime)
	for i, sc := range det.Scores {
		if i == 5 {
			s += fmt.Sprintf("  ... and %d more apps\n", len(det.Scores)-5)
			break
		}
		s += fmt.Sprintf("  #%d uid %-6d %-28s jgre_score=%d\n", i+1, sc.Uid, sc.Package, sc.Score)
	}
	s += fmt.Sprintf("  killed: %v; recovered: %v\n", det.Killed, det.Recovered)
	return s
}
