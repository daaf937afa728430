package device

import "repro/internal/trace"

// Flight-recorder wiring: the device owns the per-device span ring
// (trace.Recorder) and points the binder driver and the monitored host
// runtimes at it. Recorder().Spans() is the one way spans leave a
// device. Tracing is off by default; an off device allocates no recorder
// and every instrumented layer pays one nil check.

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

// ProcNames maps the pids that appear in flight-recorder spans to
// display names for the exporter's process tracks: the host processes
// plus the running apps (transaction senders).
func (d *Device) ProcNames() map[int32]string {
	names := make(map[int32]string, len(d.hosts)+8)
	for _, p := range d.hosts {
		names[int32(p.Pid())] = p.Name()
	}
	for _, a := range d.apps.Installed() {
		if a.Running() {
			names[int32(a.Proc().Pid())] = a.Package()
		}
	}
	return names
}
