package device

import (
	"fmt"

	"repro/internal/art"
	"repro/internal/kernel"
	"repro/internal/telemetry"
)

// MetricsPath is the procfs file exposing the device's telemetry
// registry in Prometheus text form. Like /proc/jgre_ipc_log it is
// provider-backed (rendered lazily on read) and ACL'd to the system:
// app uids are denied, so a malicious app cannot watch the defender's
// own vital signs to time its attack.
const MetricsPath = "/proc/jgre_metrics"

// DefenderHealth is the defense layer's self-reported health, surfaced
// through device.Stats so dumpsys/jgre-report show one coherent block.
// The device package defines the type (rather than importing defense,
// which imports device) and the defender installs the provider via
// SetDefenderHealth.
type DefenderHealth struct {
	// Detections is the number of engagements so far.
	Detections int
	// Coverage is the delivered/generated record fraction of the most
	// recent engagement window (1 on a lossless chain, 0 before any
	// engagement).
	Coverage float64
	// FallbackUsed marks whether the most recent engagement blended in
	// retained-ref fallback attribution.
	FallbackUsed bool
	// ReadRetries / AnalysisRestarts / GuardStops are cumulative across
	// all engagements.
	ReadRetries      int
	AnalysisRestarts int
	GuardStops       int
}

// Metrics returns the device's telemetry registry. A fresh boot builds
// it eagerly; clones defer it — the registry is created and the binder
// driver's instruments attached on first call, so clone-heavy sweeps
// that never scrape metrics skip the ~130 registrations entirely.
// Envelopes and Stats never read through here, so deferral cannot
// change simulation output.
//
// The first materialization is guarded by metricsMu: a dashboard
// scraping /proc/jgre_metrics can race the simulation goroutine's first
// Metrics() call on a clone, and both must observe one fully-registered
// registry rather than a half-built one. The registry's own operations
// are already goroutine-safe; only this lazy init needed the lock.
func (d *Device) Metrics() *telemetry.Registry {
	d.metricsMu.Lock()
	defer d.metricsMu.Unlock()
	if d.metrics == nil {
		reg := telemetry.NewRegistry()
		d.driver.AttachMetrics(reg)
		d.metrics = reg
		d.registerMetrics()
	}
	return d.metrics
}

// SetDefenderHealth installs the defender's health provider. The
// defense package calls this when a Defender attaches; Stats and the
// defender-health gauges read through it.
func (d *Device) SetDefenderHealth(fn func() DefenderHealth) {
	d.defenderHealth = fn
}

// registerMetrics wires the device-level pull gauges: uptime, process
// census, per-process JGR tables for the monitored hosts, ART
// local-frame churn, flight-recorder health and the fault injector's
// ledger. Everything reads state the layers already maintain, so the
// only cost is at render/snapshot time.
func (d *Device) registerMetrics() {
	reg := d.metrics
	reg.GaugeFunc("jgre_device_uptime_seconds",
		"Virtual time since first boot.",
		func() float64 { return d.clock.Now().Seconds() })
	reg.GaugeFunc("jgre_device_processes",
		"Running processes.",
		func() float64 { return float64(d.kern.RunningCount()) })
	reg.GaugeFunc("jgre_device_running_apps",
		"Installed apps currently running.",
		func() float64 {
			n := 0
			for _, a := range d.apps.Installed() {
				if a.Running() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("jgre_device_soft_reboots_total",
		"Soft reboots survived.",
		func() float64 { return float64(d.kern.SoftReboots()) })
	reg.GaugeFunc("jgre_device_lmk_kills_total",
		"Low-memory-killer evictions.",
		func() float64 { return float64(d.kern.LMKKills()) })
	// Flight-recorder gauges read 0 when tracing is off (nil recorder);
	// jgre-top's TRACE panel renders them with an explicit placeholder
	// when the family is absent entirely.
	reg.GaugeFunc("jgre_trace_spans",
		"Spans currently held by the causal flight recorder (0 when tracing is off).",
		func() float64 { return float64(d.rec.Len()) })
	reg.GaugeFunc("jgre_trace_span_drops_total",
		"Flight-recorder spans overwritten by ring eviction.",
		func() float64 { return float64(d.rec.Dropped()) })

	// Per-process JGR and frame-churn series for the monitored hosts:
	// system_server plus the dedicated service hosts (~10 processes, not
	// all 382 — the filler daemons are native and have no runtime to
	// report). Closures read d.hosts at render time, so a soft reboot
	// transparently re-points every series at the host's new incarnation.
	d.registerHostMetrics(kernel.SystemServerName)
	for name := range d.hosts {
		if name != kernel.SystemServerName {
			d.registerHostMetrics(name)
		}
	}

	if in := d.FaultInjector(); in != nil {
		reg.GaugeFunc("jgre_faults_record_drops_total",
			"IPC log records the injector decided to drop.",
			func() float64 { return float64(in.Stats().RecordDrops) })
		reg.GaugeFunc("jgre_faults_read_attempts_total",
			"Log-read attempts the injector was consulted on.",
			func() float64 { return float64(in.Stats().ReadAttempts) })
		reg.GaugeFunc("jgre_faults_read_faults_total",
			"Log reads the injector failed.",
			func() float64 { return float64(in.Stats().ReadFaults) })
		reg.GaugeFunc("jgre_faults_analysis_attempts_total",
			"Defender analysis attempts the injector was consulted on.",
			func() float64 { return float64(in.Stats().AnalysisAttempts) })
		reg.GaugeFunc("jgre_faults_analysis_faults_total",
			"Defender analysis runs the injector killed mid-flight.",
			func() float64 { return float64(in.Stats().AnalysisFaults) })
	}

	reg.GaugeFunc("jgre_defender_attached",
		"1 when a JGRE defender is attached to this device.",
		func() float64 {
			if d.defenderHealth != nil {
				return 1
			}
			return 0
		})
}

// registerHostMetrics wires one monitored host process's runtime series.
func (d *Device) registerHostMetrics(name string) {
	vm := func() *art.VM {
		if p, ok := d.hosts[name]; ok {
			return p.VM()
		}
		return nil
	}
	label := fmt.Sprintf("{process=%q}", name)
	g := func(metric, help string, fn func() float64) {
		d.metrics.GaugeFunc(metric+label, help, fn)
	}
	g("jgre_jgr_table_size", "Current JGR table entries.", func() float64 {
		if v := vm(); v != nil {
			return float64(v.GlobalRefCount())
		}
		return 0
	})
	g("jgre_jgr_table_peak", "Historical maximum JGR table size of the current incarnation.", func() float64 {
		if v := vm(); v != nil {
			return float64(v.PeakGlobalRefCount())
		}
		return 0
	})
	g("jgre_jgr_table_cap", "JGR table capacity (the abort threshold).", func() float64 {
		if v := vm(); v != nil {
			return float64(v.MaxGlobal())
		}
		return 0
	})
	g("jgre_jgr_adds_total", "Cumulative successful AddGlobalRef calls.", func() float64 {
		if v := vm(); v != nil {
			return float64(v.TotalGlobalAdds())
		}
		return 0
	})
	g("jgre_jgr_removes_total", "Cumulative JGR entries removed (deletes plus GC).", func() float64 {
		if v := vm(); v != nil {
			return float64(v.TotalGlobalRemoves())
		}
		return 0
	})
	g("jgre_art_gc_cycles_total", "GC cycles run by this runtime.", func() float64 {
		if v := vm(); v != nil {
			return float64(v.GCCycles())
		}
		return 0
	})
	g("jgre_art_frame_pushes_total", "JNI local frames entered (per-transaction churn).", func() float64 {
		if v := vm(); v != nil {
			return float64(v.FramePushes())
		}
		return 0
	})
	g("jgre_art_frame_pool_hits_total", "Frame pushes served from the recycled-frame pool.", func() float64 {
		if v := vm(); v != nil {
			return float64(v.FramePoolHits())
		}
		return 0
	})
}
