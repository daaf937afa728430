package device

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// Flight-recorder wiring: the device owns the per-device span ring
// (trace.Recorder), points the binder driver and the monitored host
// runtimes at it, and snapshots it — a "flight dump" — at forensically
// interesting moments: defender detections and chaos crashes. Tracing is
// off by default; an off device allocates no recorder and every
// instrumented layer pays one nil check.

// MaxFlightDumps bounds how many dump snapshots a device retains; older
// dumps are discarded first, and counted.
const MaxFlightDumps = 8

// FlightDump is one flight-recorder snapshot.
type FlightDump struct {
	// T is the virtual time the dump was taken.
	T time.Duration
	// Reason says what triggered it ("detection: <victim>",
	// "chaos: crash <proc>", ...).
	Reason string
	// Spans is the ring content at dump time, oldest first.
	Spans []trace.SpanRecord
}

// Recorder returns the device's flight recorder — nil when tracing is
// off, which every trace.Recorder method tolerates.
func (d *Device) Recorder() *trace.Recorder { return d.rec }

// newRecorder builds the flight recorder cfg asks for (nil when off).
func newRecorder(cfg Config) *trace.Recorder {
	if !cfg.Trace.Enabled {
		return nil
	}
	return trace.NewRecorder(cfg.Trace.Capacity, cfg.Trace.Sample, cfg.Seed)
}

// attachTraceVMs points the monitored host runtimes (system_server and
// the dedicated service hosts — the processes whose JGR tables matter)
// at the flight recorder. Runs after every path that creates host
// processes: boot, clone replay, soft reboot, supervisor host restart.
// VM clones deliberately do not inherit the recorder pointer, so
// re-attachment here is what keeps tracing alive across reboots.
func (d *Device) attachTraceVMs() {
	if d.rec == nil {
		return
	}
	for _, p := range d.hosts {
		if p != nil && p.Alive() {
			p.VM().SetTraceRecorder(d.rec, int32(p.Pid()))
		}
	}
}

// DumpFlightRecorder snapshots the span ring with a reason, bounded by
// MaxFlightDumps, and journals the dump so the forensic timeline shows
// when (and why) trace evidence was captured. No-op when tracing is off.
func (d *Device) DumpFlightRecorder(reason string) {
	if d.rec == nil {
		return
	}
	dump := FlightDump{T: d.clock.Now(), Reason: reason, Spans: d.rec.Spans()}
	d.flightDumps.Push(dump)
	d.journal.Add(dump.T, trace.KindNote, "flight-recorder",
		fmt.Sprintf("dump: %s (%d spans, %d evicted)", reason, len(dump.Spans), d.rec.Dropped()))
}

// FlightDumps returns a copy of the retained dump snapshots, oldest
// first.
func (d *Device) FlightDumps() []FlightDump { return d.flightDumps.AppendTo(nil) }

// FlightDumpsTotal returns how many dumps were ever taken (retention may
// have discarded some).
func (d *Device) FlightDumpsTotal() int {
	return d.flightDumps.Len() + int(d.flightDumps.Dropped())
}

// ProcNames maps the pids that appear in flight-recorder spans to
// display names for the exporter's process tracks: the host processes
// plus the running apps (transaction senders).
func (d *Device) ProcNames() map[int32]string {
	names := make(map[int32]string, len(d.hosts)+8)
	for name, p := range d.hosts {
		names[int32(p.Pid())] = name
	}
	for _, a := range d.apps.Installed() {
		if a.Running() {
			names[int32(a.Proc().Pid())] = a.Package()
		}
	}
	return names
}

// Trace capture: a package-level sink for tooling (jgre-run -trace-out)
// that cannot thread a trace config through scenario construction. While
// active, every device booted or cloned gets a flight recorder, and each
// device's spans are harvested when its slot is recycled (the device is
// retired) or when the capture is collected. The total is bounded by
// maxSpans with an explicit dropped count — no silent caps.
var (
	captureMu      sync.Mutex
	captureActive  bool
	captureCfg     trace.Config
	captureSpans   []trace.SpanRecord
	captureNames   map[int32]string
	captureLive    map[*Device]bool
	captureMax     int
	captureDropped uint64
)

// DefaultCaptureMaxSpans bounds a capture's retained spans (~28 MiB).
const DefaultCaptureMaxSpans = 1 << 19

// StartTraceCapture turns the capture on: subsequently booted devices
// trace with cfg (Enabled is forced). maxSpans <= 0 selects
// DefaultCaptureMaxSpans. Call CollectCapturedTraces to stop and drain.
func StartTraceCapture(cfg trace.Config, maxSpans int) {
	captureMu.Lock()
	defer captureMu.Unlock()
	if maxSpans <= 0 {
		maxSpans = DefaultCaptureMaxSpans
	}
	cfg.Enabled = true
	captureActive = true
	captureCfg = cfg
	captureSpans = nil
	captureNames = make(map[int32]string)
	captureLive = make(map[*Device]bool)
	captureMax = maxSpans
	captureDropped = 0
}

// CollectCapturedTraces stops the capture and returns every harvested
// span, the pid display names, and how many spans were dropped (ring
// eviction on the devices plus capture-cap overflow).
func CollectCapturedTraces() ([]trace.SpanRecord, map[int32]string, uint64) {
	captureMu.Lock()
	defer captureMu.Unlock()
	for dev := range captureLive {
		captureFlushLocked(dev)
	}
	spans, names, dropped := captureSpans, captureNames, captureDropped
	captureActive = false
	captureSpans, captureNames, captureLive = nil, nil, nil
	return spans, names, dropped
}

// applyCapture forces the capture's trace config onto a boot config that
// doesn't already trace. Runs at the entry of BootFresh and Template, so
// both fresh boots and clone templates (and thus clones) pick it up.
func applyCapture(cfg *Config) {
	captureMu.Lock()
	defer captureMu.Unlock()
	if captureActive && !cfg.Trace.Enabled {
		cfg.Trace = captureCfg
	}
}

// registerCapture enrolls a freshly built tracing device in the live
// set. Safe to call for every device; off-capture or untraced devices
// are ignored. A recycled slot re-registers the same pointer.
func registerCapture(d *Device) {
	if d.rec == nil {
		return
	}
	captureMu.Lock()
	defer captureMu.Unlock()
	if captureActive {
		captureLive[d] = true
	}
}

// retireCapture harvests a device's spans before its recorder is rewound
// for a new trial (the slot-recycle path).
func retireCapture(d *Device) {
	if d.rec == nil {
		return
	}
	captureMu.Lock()
	defer captureMu.Unlock()
	if !captureActive || !captureLive[d] {
		return
	}
	captureFlushLocked(d)
	delete(captureLive, d)
}

func captureFlushLocked(d *Device) {
	spans := d.rec.Spans()
	captureDropped += d.rec.Dropped()
	if room := captureMax - len(captureSpans); len(spans) > room {
		captureDropped += uint64(len(spans) - room)
		spans = spans[:room]
	}
	captureSpans = append(captureSpans, spans...)
	for pid, name := range d.ProcNames() {
		captureNames[pid] = name
	}
}
