// Defender checkpoint/restore: the crash-safety layer of the lifecycle
// chaos work. A Checkpoint is a versioned, canonical-bytes snapshot of
// everything the defender needs to resume correlating after a process
// bounce — per-monitor alarm state and recorded JGR add-times, the
// evidence-window high-water marks delimiting the next poll window, the
// adaptive-Δ state, and the cumulative health counters — written at
// poll-window boundaries (see respond's OnCheckpoint hook) and replayed
// into a fresh Defender by Restore.
//
// The encoding is deliberately canonical: monitors sort by pid, every
// integer is fixed-width little-endian, booleans are exactly 0 or 1,
// and DecodeCheckpoint rejects trailing bytes, unordered monitors and
// malformed booleans. Canonical bytes make equality testable as
// bytes.Equal and give the fuzz harness a strong round-trip invariant:
// any input DecodeCheckpoint accepts re-encodes to the identical bytes.
package defense

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/kernel"
)

// CheckpointVersion is the current checkpoint format version. Restore
// rejects other versions — a bounced defender never guesses at a layout.
const CheckpointVersion = 1

// checkpointMagic brands the byte stream ("JGRC").
var checkpointMagic = [4]byte{'J', 'G', 'R', 'C'}

// ErrCheckpointCorrupt reports a byte stream DecodeCheckpoint rejected.
var ErrCheckpointCorrupt = errors.New("defense: corrupt checkpoint")

// MonitorCheckpoint is one runtime-extension monitor's persisted state.
type MonitorCheckpoint struct {
	// Name and Pid identify the monitored process; Restore only applies
	// the state when both still match, so a victim that died across the
	// defender outage silently re-baselines instead.
	Name string
	Pid  int64
	// Baseline is the attach-time JGR count alarms are measured against.
	Baseline int64
	// Recording/Engaged are the alarm-state flags.
	Recording bool
	Engaged   bool
	// AddTimes are the recorded JGR creation times since the alarm.
	AddTimes []time.Duration
}

// Checkpoint is the defender's poll-window-boundary snapshot.
type Checkpoint struct {
	Version uint32
	// TakenAt is the virtual time of the snapshot.
	TakenAt time.Duration
	// Window* are the driver LogStats high-water marks delimiting the
	// in-progress evidence window (lastStats in the poll loop).
	WindowSeq         uint64
	WindowLogged      uint64
	WindowDroppedRate uint64
	WindowDroppedRing uint64
	WindowReadErrors  uint64
	// LastDelta is the adaptive-Δ state: the effective Δ of the most
	// recent engagement.
	LastDelta time.Duration
	// InnocentKillBudget is the configured per-engagement budget, kept
	// so an operator can audit what policy the snapshot ran under.
	InnocentKillBudget int64
	// CorrRounds is the completed correlator-run count.
	CorrRounds uint64
	// Cumulative health counters and the last engagement's verdict.
	Detections       int64
	ReadRetries      int64
	AnalysisRestarts int64
	GuardStops       int64
	LastCoverage     float64
	LastFallback     bool
	// Monitors snapshots every attached runtime extension, sorted by Pid.
	Monitors []MonitorCheckpoint
}

// monitorWireMin is the minimum encoded size of one monitor (empty name,
// no add-times): nameLen(4) + pid(8) + baseline(8) + flags(2) + addLen(4).
const monitorWireMin = 26

// Encode renders the checkpoint as canonical bytes. Monitors are sorted
// by Pid into a copy, so encoding never mutates the receiver.
func (cp *Checkpoint) Encode() []byte {
	mons := append([]MonitorCheckpoint(nil), cp.Monitors...)
	sort.Slice(mons, func(i, j int) bool { return mons[i].Pid < mons[j].Pid })

	n := 4 + 4 + 8*13 + 8 + 1 + 4
	for _, m := range mons {
		n += monitorWireMin + len(m.Name) + 8*len(m.AddTimes)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, checkpointMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, cp.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.TakenAt))
	buf = binary.LittleEndian.AppendUint64(buf, cp.WindowSeq)
	buf = binary.LittleEndian.AppendUint64(buf, cp.WindowLogged)
	buf = binary.LittleEndian.AppendUint64(buf, cp.WindowDroppedRate)
	buf = binary.LittleEndian.AppendUint64(buf, cp.WindowDroppedRing)
	buf = binary.LittleEndian.AppendUint64(buf, cp.WindowReadErrors)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.LastDelta))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.InnocentKillBudget))
	buf = binary.LittleEndian.AppendUint64(buf, cp.CorrRounds)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Detections))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.ReadRetries))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.AnalysisRestarts))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.GuardStops))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cp.LastCoverage))
	buf = append(buf, encodeBool(cp.LastFallback))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mons)))
	for _, m := range mons {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Name)))
		buf = append(buf, m.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Pid))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Baseline))
		buf = append(buf, encodeBool(m.Recording), encodeBool(m.Engaged))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.AddTimes)))
		for _, t := range m.AddTimes {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		}
	}
	return buf
}

func encodeBool(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// cpReader is a bounds-checked cursor over checkpoint bytes.
type cpReader struct {
	buf []byte
	err error
}

func (r *cpReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCheckpointCorrupt, what)
	}
}

func (r *cpReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.fail("truncated")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *cpReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *cpReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *cpReader) boolean() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("non-canonical boolean")
		return false
	}
}

// DecodeCheckpoint parses canonical checkpoint bytes. It never panics on
// arbitrary input: every read is bounds-checked, allocation sizes are
// validated against the remaining input, and non-canonical forms —
// unknown version, unsorted or duplicate monitor pids, boolean bytes
// outside {0,1}, trailing garbage — are rejected, so any accepted input
// re-encodes to the identical bytes.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := &cpReader{buf: data}
	if magic := r.take(4); r.err != nil || [4]byte(magic) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	cp := &Checkpoint{}
	cp.Version = r.u32()
	if r.err == nil && cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, cp.Version)
	}
	cp.TakenAt = time.Duration(r.u64())
	cp.WindowSeq = r.u64()
	cp.WindowLogged = r.u64()
	cp.WindowDroppedRate = r.u64()
	cp.WindowDroppedRing = r.u64()
	cp.WindowReadErrors = r.u64()
	cp.LastDelta = time.Duration(r.u64())
	cp.InnocentKillBudget = int64(r.u64())
	cp.CorrRounds = r.u64()
	cp.Detections = int64(r.u64())
	cp.ReadRetries = int64(r.u64())
	cp.AnalysisRestarts = int64(r.u64())
	cp.GuardStops = int64(r.u64())
	cp.LastCoverage = math.Float64frombits(r.u64())
	cp.LastFallback = r.boolean()
	monCount := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	// A defender's coverage is delivered/generated records, never NaN,
	// and a NaN would not decode equal to itself.
	if math.IsNaN(cp.LastCoverage) {
		return nil, fmt.Errorf("%w: NaN coverage", ErrCheckpointCorrupt)
	}
	if int64(monCount)*monitorWireMin > int64(len(r.buf)) {
		return nil, fmt.Errorf("%w: monitor count %d exceeds input", ErrCheckpointCorrupt, monCount)
	}
	if monCount > 0 {
		cp.Monitors = make([]MonitorCheckpoint, 0, monCount)
	}
	for i := uint32(0); i < monCount; i++ {
		var m MonitorCheckpoint
		nameLen := r.u32()
		if r.err == nil && int64(nameLen) > int64(len(r.buf)) {
			return nil, fmt.Errorf("%w: name length %d exceeds input", ErrCheckpointCorrupt, nameLen)
		}
		m.Name = string(r.take(int(nameLen)))
		m.Pid = int64(r.u64())
		m.Baseline = int64(r.u64())
		m.Recording = r.boolean()
		m.Engaged = r.boolean()
		addLen := r.u32()
		if r.err != nil {
			return nil, r.err
		}
		if int64(addLen)*8 > int64(len(r.buf)) {
			return nil, fmt.Errorf("%w: add-times length %d exceeds input", ErrCheckpointCorrupt, addLen)
		}
		if addLen > 0 {
			m.AddTimes = make([]time.Duration, addLen)
			for j := range m.AddTimes {
				m.AddTimes[j] = time.Duration(r.u64())
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		if n := len(cp.Monitors); n > 0 && cp.Monitors[n-1].Pid >= m.Pid {
			return nil, fmt.Errorf("%w: monitors not strictly increasing by pid", ErrCheckpointCorrupt)
		}
		cp.Monitors = append(cp.Monitors, m)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, len(r.buf))
	}
	return cp, nil
}

// Checkpoint snapshots the defender's resumable state. It is read-only
// and consumes neither virtual time nor randomness, so taking one is
// invisible to the simulation — the property the checkpoint-equivalence
// test pins.
func (d *Defender) Checkpoint() *Checkpoint {
	h := d.health()
	cp := &Checkpoint{
		Version:            CheckpointVersion,
		TakenAt:            d.dev.Clock().Now(),
		WindowSeq:          d.lastStats.Seq,
		WindowLogged:       d.lastStats.Logged,
		WindowDroppedRate:  d.lastStats.DroppedRate,
		WindowDroppedRing:  d.lastStats.DroppedRing,
		WindowReadErrors:   d.lastStats.ReadErrors,
		LastDelta:          d.lastDelta,
		InnocentKillBudget: int64(d.cfg.InnocentKillBudget),
		CorrRounds:         d.corrRounds,
		Detections:         int64(h.Detections),
		ReadRetries:        int64(h.ReadRetries),
		AnalysisRestarts:   int64(h.AnalysisRestarts),
		GuardStops:         int64(h.GuardStops),
		LastCoverage:       h.Coverage,
		LastFallback:       h.FallbackUsed,
	}
	//maporder:sorted by pid below
	for pid, m := range d.monitors {
		mc := MonitorCheckpoint{
			Name:      m.proc.Name(),
			Pid:       int64(pid),
			Baseline:  int64(m.baseline),
			Recording: m.recording,
			Engaged:   m.engaged,
		}
		if m.eng != nil {
			mc.AddTimes = append([]time.Duration(nil), m.eng.addTimes...)
		}
		cp.Monitors = append(cp.Monitors, mc)
	}
	sort.Slice(cp.Monitors, func(i, j int) bool { return cp.Monitors[i].Pid < cp.Monitors[j].Pid })
	return cp
}

// Kill simulates the defender process dying: the health provider
// detaches and every monitor map entry is dropped. The VM-side JGR
// hooks cannot be unregistered, so they go inert through the dead flag
// — checked before any clock charge, keeping a killed defender
// completely invisible to the simulation.
func (d *Defender) Kill() {
	if d.dead {
		return
	}
	d.dead = true
	d.monitors = make(map[kernel.Pid]*monitor)
	d.dev.SetDefenderHealth(nil)
}

// Dead reports whether Kill has run.
func (d *Defender) Dead() bool { return d.dead }

// Restore builds a defender resuming from a checkpoint: a fresh New
// (re-attaching monitors, re-enabling IPC logging idempotently) whose
// evidence-window delimiter, adaptive-Δ state, health counters and
// per-monitor alarm state are replayed from cp. A nil cp is a cold
// restart — identical to New. Monitors are matched by (pid, name); a
// victim that died during the defender outage keeps its fresh baseline.
func Restore(dev *device.Device, cfg Config, cp *Checkpoint) (*Defender, error) {
	d, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		return d, nil
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("defense: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	d.lastStats = binder.LogStats{
		Seq:         cp.WindowSeq,
		Logged:      cp.WindowLogged,
		DroppedRate: cp.WindowDroppedRate,
		DroppedRing: cp.WindowDroppedRing,
		ReadErrors:  cp.WindowReadErrors,
	}
	d.lastDelta = cp.LastDelta
	d.corrRounds = cp.CorrRounds
	d.restored = device.DefenderHealth{
		Detections:       int(cp.Detections),
		Coverage:         cp.LastCoverage,
		FallbackUsed:     cp.LastFallback,
		ReadRetries:      int(cp.ReadRetries),
		AnalysisRestarts: int(cp.AnalysisRestarts),
		GuardStops:       int(cp.GuardStops),
	}
	for _, mc := range cp.Monitors {
		m, ok := d.monitors[kernel.Pid(mc.Pid)]
		if !ok || m.proc.Name() != mc.Name {
			continue
		}
		m.baseline = int(mc.Baseline)
		m.recording = mc.Recording
		m.engaged = mc.Engaged
		if len(mc.AddTimes) > 0 {
			e := m.storage()
			e.addTimes = append(e.addTimes, mc.AddTimes...)
		}
	}
	d.met.restores.Inc()
	return d, nil
}

// BounceMode selects what state a bounced defender comes back with.
type BounceMode int

const (
	// BounceCold restarts with no checkpoint: the defender re-baselines
	// every monitor at the current (possibly attack-inflated) JGR count.
	BounceCold BounceMode = iota
	// BounceWarm restores from the last poll-window-boundary checkpoint
	// (cold until the first engagement has written one).
	BounceWarm
	// BounceSync captures a checkpoint at kill time — a graceful
	// shutdown flushing state on SIGTERM — and restores from it.
	BounceSync
)

// Bouncer manages a defender across chaos kill/restore cycles,
// implementing the chaos engine's DefenderLifecycle. It re-hooks the
// checkpoint, abort and detection observers onto each new incarnation.
type Bouncer struct {
	dev  *device.Device
	cfg  Config
	mode BounceMode
	def  *Defender
	last *Checkpoint

	abort       func() bool
	onDetection func(Detection)
}

// NewBouncer creates the initial defender incarnation.
func NewBouncer(dev *device.Device, cfg Config, mode BounceMode) (*Bouncer, error) {
	b := &Bouncer{dev: dev, cfg: cfg, mode: mode}
	def, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	b.hook(def)
	return b, nil
}

func (b *Bouncer) hook(def *Defender) {
	b.def = def
	def.OnCheckpoint = func(cp *Checkpoint) { b.last = cp }
	def.OnDetection = b.onDetection
	if b.abort != nil {
		def.SetAbort(b.abort)
	}
}

// Defender returns the current incarnation.
func (b *Bouncer) Defender() *Defender { return b.def }

// SetAbort installs the cancellation probe on current and future
// incarnations.
func (b *Bouncer) SetAbort(fn func() bool) {
	b.abort = fn
	b.def.SetAbort(fn)
}

// SetOnDetection installs the detection observer on current and future
// incarnations.
func (b *Bouncer) SetOnDetection(fn func(Detection)) {
	b.onDetection = fn
	b.def.OnDetection = fn
}

// History returns the current incarnation's detections.
func (b *Bouncer) History() []Detection { return b.def.History() }

// Kill implements chaos.DefenderLifecycle.
func (b *Bouncer) Kill() {
	if b.mode == BounceSync {
		b.last = b.def.Checkpoint()
	}
	b.def.Kill()
}

// Restore implements chaos.DefenderLifecycle: a new incarnation resumes
// from the retained checkpoint (mode-dependent) with the observers
// re-hooked.
func (b *Bouncer) Restore() error {
	cp := b.last
	if b.mode == BounceCold {
		cp = nil
	}
	def, err := Restore(b.dev, b.cfg, cp)
	if err != nil {
		return err
	}
	b.hook(def)
	return nil
}
