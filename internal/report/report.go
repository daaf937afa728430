// Package report renders a complete Markdown security-assessment
// artifact from a pipeline run and a defense evaluation — the document a
// team would attach to the bug reports the paper filed with the Android
// Security Team.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

// Input bundles everything a report can cover. Any field may be left
// zero; the corresponding section is omitted.
type Input struct {
	// Title heads the document.
	Title string
	// Pipeline is the audit result (with or without dynamic
	// verification).
	Pipeline *analysis.PipelineResult
	// Detections are defender engagements to document.
	Detections []defense.Detection
	// Telemetry optionally documents the demo device's IPC-log health
	// counters (records generated vs. lost to drops, ring eviction and
	// failed reads) — the evidence-pipeline integrity behind Detections.
	Telemetry *device.Stats
	// FleetForensics optionally includes a traced fleet run's causal
	// rollup: attack→evidence→detection latency distributions and per-uid
	// attribution accuracy from the flight recorders.
	FleetForensics *fleet.Result
	// Thresholds optionally includes the alarm/engage ablation table.
	Thresholds []experiments.ThresholdRow
	// Patch optionally includes the §IV-B universal-quota counterfactual.
	Patch []experiments.PatchRow
	// GeneratedAt stamps the document (virtual or wall time string).
	GeneratedAt string
}

// Write renders the report to w.
func Write(w io.Writer, in Input) error {
	title := in.Title
	if title == "" {
		title = "JGRE Vulnerability Assessment"
	}
	p := func(format string, args ...interface{}) {
		fmt.Fprintf(w, format, args...)
	}
	p("# %s\n\n", title)
	if in.GeneratedAt != "" {
		p("_Generated: %s_\n\n", in.GeneratedAt)
	}
	p("JNI Global Reference (JGR) exhaustion audit per Gu et al., DSN 2017: every\n")
	p("process's runtime aborts past %d global references; IPC interfaces that\n", catalog.JGRThreshold)
	p("retain caller binders let any authorized app drive a victim there.\n\n")

	if in.Pipeline != nil {
		writePipeline(p, in.Pipeline)
	}
	if len(in.Detections) > 0 {
		writeDetections(p, in.Detections)
	}
	if s := in.Telemetry; s != nil && anyHealthCounter(s) {
		p("## Telemetry health\n\n")
		p("| Counter | Value |\n|---|---|\n")
		p("| IPC-log records generated | %d |\n", s.IPCLogSeq)
		p("| Lost to injected drops | %d |\n", s.IPCLogDropped)
		p("| Lost to ring-buffer eviction | %d |\n", s.IPCLogRingDropped)
		p("| Failed log reads | %d |\n", s.IPCLogReadErrors)
		p("| Binder transactions total | %d |\n", s.Transactions)
		p("| Trace-journal events evicted | %d |\n", s.TraceDropped)
		if s.TraceSpans > 0 || s.TraceSpanDrops > 0 {
			p("| Flight-recorder spans held | %d |\n", s.TraceSpans)
			p("| Flight-recorder spans evicted | %d |\n", s.TraceSpanDrops)
		}
		p("\n")
		if s.TraceDropped > 0 {
			p("> %d journal events were evicted by the bounded trace ring: the forensic\n", s.TraceDropped)
			p("> timeline in this report is incomplete.\n\n")
		}
		if s.TraceSpanDrops > 0 {
			p("> %d causal spans were evicted from the bounded flight-recorder ring:\n", s.TraceSpanDrops)
			p("> span chains in the trace export may be missing their oldest links.\n\n")
		}
		if h := s.Defender; h != nil {
			p("### Defender health\n\n")
			p("| Indicator | Value |\n|---|---|\n")
			p("| Engagements | %d |\n", h.Detections)
			p("| Last-window coverage | %.2f |\n", h.Coverage)
			p("| Fallback attribution (last window) | %v |\n", h.FallbackUsed)
			p("| Log-read retries (cumulative) | %d |\n", h.ReadRetries)
			p("| Analysis restarts (cumulative) | %d |\n", h.AnalysisRestarts)
			p("| Innocent-kill guard stops (cumulative) | %d |\n", h.GuardStops)
			p("\n")
		}
	}
	if in.FleetForensics != nil {
		writeFleetForensics(p, in.FleetForensics)
	}
	if len(in.Thresholds) > 0 {
		p("## Defender threshold ablation\n\n")
		p("| Alarm | Engage | Time to engage | Peak JGR | Margin | Defended |\n|---|---|---|---|---|---|\n")
		for _, r := range in.Thresholds {
			p("| %d | %d | %.1fs | %d | %d | %v |\n",
				r.Alarm, r.Engage, r.TimeToEngage.Seconds(), r.PeakJGR, r.Margin(), r.Defended)
		}
		p("\n")
	}
	if len(in.Patch) > 0 {
		p("## Universal per-process-quota counterfactual (§IV-B)\n\n")
		p("| Quota | Single attacker blocked | Heavy-app refusals | Colluders to reboot |\n|---|---|---|---|\n")
		for _, r := range in.Patch {
			colluders := fmt.Sprintf("%d", r.ColludersNeeded)
			if r.ColludersNeeded == 0 {
				colluders = ">80"
			}
			p("| %d | %v | %d | %s |\n", r.Quota, r.SingleBlocked, r.HeavyAppRefusals, colluders)
		}
		p("\n")
	}
	p("## Remediation guidance\n\n")
	p("- Client-side (helper class) quotas are advisory only: enforce limits in the\n")
	p("  service, keyed on `Binder.getCallingPid()`/`getCallingUid()`, never on\n")
	p("  caller-supplied identifiers (the `enqueueToast` \"android\" spoof).\n")
	p("- Static quotas trade usability against collusion resistance; a dynamic\n")
	p("  monitor over the shared JGR table (the JGRE Defender) covers both.\n")
	p("- Registrations must be bounded or reclaimed: pair every `register` with\n")
	p("  death-linked cleanup and an `unregister` path.\n")
	return nil
}

// anyHealthCounter reports whether a telemetry-health counter is
// nonzero: IPC-log volume, loss or read errors, journal or
// flight-recorder evictions, retained spans, or an attached defender's
// health.
func anyHealthCounter(s *device.Stats) bool {
	return s.IPCLogSeq > 0 || s.IPCLogDropped > 0 || s.IPCLogRingDropped > 0 || s.IPCLogReadErrors > 0 ||
		s.TraceDropped > 0 || s.TraceSpans > 0 || s.TraceSpanDrops > 0 || s.Defender != nil
}

func writePipeline(p func(string, ...interface{}), res *analysis.PipelineResult) {
	f := res.Funnel()
	p("## Analysis pipeline summary\n\n")
	p("| Stage | Count |\n|---|---|\n")
	p("| System services registered | %d (%d native) |\n", f.SystemServices, f.NativeServices)
	p("| IPC methods extracted | %d |\n", f.IPCMethods)
	p("| Native paths to `IndirectReferenceTable::Add` | %d (%d init-only) |\n", f.NativePaths, f.InitOnlyPaths)
	p("| Risky IPC methods | %d |\n", f.RiskyMethods)
	p("| Discarded by sift rules | %d |\n", f.SiftedMethods)
	p("| Candidates | %d |\n", f.Candidates)
	if res.Verify != nil {
		p("| **Confirmed vulnerable** | **%d** |\n", f.Confirmed)
		p("| Cleared dynamically | %d |\n", f.RejectedDynamic)
	}
	p("\n")

	if res.Verify == nil {
		p("### Static candidates (dynamic verification not run)\n\n")
		for _, rm := range res.Sift.Kept {
			p("- `%s`\n", rm.IPC.FullName())
		}
		p("\n")
		return
	}

	p("### Confirmed vulnerable interfaces\n\n")
	p("| Interface | Growth/call | Permission required | Shipped guard |\n|---|---|---|---|\n")
	findings := append([]analysis.Finding(nil), res.Verify.Confirmed...)
	sort.Slice(findings, func(i, j int) bool { return findings[i].FullName() < findings[j].FullName() })
	for _, fd := range findings {
		perm := "none"
		if fd.Permission != "" {
			perm = "`" + fd.Permission + "`"
		}
		guard := "none"
		if row, ok := catalog.InterfaceByName(fd.FullName()); ok {
			switch row.Protection {
			case catalog.HelperGuard:
				guard = fmt.Sprintf("helper `%s` (bypassable)", row.HelperClass)
			case catalog.PerProcessGuard:
				if row.Bypassable {
					guard = "per-process quota (bypassable)"
				} else {
					guard = "per-process quota"
				}
			}
		}
		p("| `%s` | +%.1f JGR | %s | %s |\n", fd.FullName(), fd.GrowthPerCall, perm, guard)
	}
	p("\n### Cleared by dynamic testing\n\n")
	for _, rej := range res.Verify.Rejected {
		p("- `%s.%s` — %s\n", rej.Service, rej.Method, rej.Reason)
	}
	p("\n")
}

// writeFleetForensics renders a traced fleet run's causal rollup. An
// untraced fleet result (Trace == nil) renders an explicit note rather
// than nothing, so a report generated without -trace says why the
// forensic tables are absent.
func writeFleetForensics(p func(string, ...interface{}), r *fleet.Result) {
	p("## Fleet causal forensics\n\n")
	p("Workload `%s`, %d devices (seed %d).\n\n", r.Workload, r.Devices, r.Seed)
	t := r.Trace
	if t == nil {
		p("> Flight recorders were off for this fleet run; rerun with tracing\n")
		p("> enabled to populate the causal latency tables.\n\n")
		return
	}
	p("| Indicator | Value |\n|---|---|\n")
	p("| Trials with a complete causal chain | %d |\n", t.Trials)
	p("| Attacker attributed by defender kill list | %d (%.1f%%) |\n", t.Attributed, 100*t.AttributionRate)
	p("| Flight-recorder spans evicted fleet-wide | %d |\n", t.SpansDropped)
	p("\n")
	p("| Causal latency (virtual ms) | p50 | p90 | p99 | max |\n|---|---|---|---|---|\n")
	lat := func(name string, s fleet.Summary) {
		if s.Count == 0 {
			p("| %s | (no samples) | | | |\n", name)
			return
		}
		p("| %s | %d | %d | %d | %d |\n", name, s.P50, s.P90, s.P99, s.Max)
	}
	lat("first malicious transact → first JGR evidence", t.AttackToEvidenceMS)
	lat("first JGR evidence → defender engagement", t.EvidenceToDetectMS)
	lat("first malicious transact → defender engagement", t.AttackToDetectMS)
	p("\n")
	if t.SpansDropped > 0 {
		p("> Ring eviction dropped %d spans across the fleet; trials whose chain\n", t.SpansDropped)
		p("> head was evicted are excluded from the latency tables above.\n\n")
	}
}

func writeDetections(p func(string, ...interface{}), dets []defense.Detection) {
	p("## Defense engagements\n\n")
	for i, det := range dets {
		p("### Engagement %d — victim `%s` at t=%.1fs\n\n", i+1, det.Victim, det.EngagedAt.Seconds())
		p("- records analysed: %d in %v\n", det.Records, det.AnalysisTime.Round(time.Millisecond))
		if det.Coverage > 0 && det.Coverage < 1 {
			p("- telemetry coverage: %.0f%% (%d records lost in the window)\n", 100*det.Coverage, det.DroppedRecords)
		}
		if det.ReadFailed || det.ReadRetries > 0 {
			p("- log reads: %d retried, read failed: %v\n", det.ReadRetries, det.ReadFailed)
		}
		if det.FallbackUsed {
			p("- attribution: retained-ref fallback (correlation evidence below coverage floor)\n")
		}
		p("- killed: %s\n", strings.Join(det.Killed, ", "))
		p("- recovered: %v\n\n", det.Recovered)
		if len(det.Scores) > 0 {
			p("| Rank | Uid | Package | Suspicious calls |\n|---|---|---|---|\n")
			for j, s := range det.Scores {
				if j == 8 {
					break
				}
				p("| %d | %d | `%s` | %d |\n", j+1, s.Uid, s.Package, s.Score)
			}
			p("\n")
		}
	}
}
