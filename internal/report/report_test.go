package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/kernel"
)

func TestWriteFullReport(t *testing.T) {
	res, err := core.Audit(core.AuditConfig{Dynamic: true, VerifyCalls: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	det := defense.Detection{
		Victim: "system_server", VictimPid: 2, EngagedAt: 20 * time.Second,
		Records: 6100, AnalysisTime: 420 * time.Millisecond,
		Scores: []defense.AppScore{
			{Uid: kernel.Uid(10061), Package: "com.evil.app", Score: 6000},
			{Uid: kernel.Uid(10060), Package: "com.benign.app", Score: 90},
		},
		Killed: []string{"com.evil.app"}, Recovered: true,
	}
	var sb strings.Builder
	err = Write(&sb, Input{
		Pipeline:    res,
		Detections:  []defense.Detection{det},
		GeneratedAt: "test run",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# JGRE Vulnerability Assessment",
		"| System services registered | 104 (5 native) |",
		"| **Confirmed vulnerable** | **57** |",
		"`clipboard.addPrimaryClipChangedListener`",
		"helper `WifiManager` (bypassable)",
		"per-process quota (bypassable)",
		"constraint held",
		"## Defense engagements",
		"`com.evil.app` | 6000",
		"Remediation guidance",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The three safe Table III interfaces appear only as cleared items.
	if strings.Count(out, "display.registerCallback") != 1 {
		t.Errorf("display.registerCallback should appear exactly once (as cleared)")
	}
}

func TestWriteStaticOnlyReport(t *testing.T) {
	res, err := core.Audit(core.AuditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, Input{Title: "Static sweep", Pipeline: res}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# Static sweep") {
		t.Error("custom title missing")
	}
	if !strings.Contains(out, "dynamic verification not run") {
		t.Error("static-only marker missing")
	}
	if strings.Contains(out, "Defense engagements") {
		t.Error("empty detections section rendered")
	}
}

func TestWriteEmptyInput(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, Input{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Remediation guidance") {
		t.Error("minimal report missing remediation section")
	}
}

func TestWriteAblationSections(t *testing.T) {
	var sb strings.Builder
	err := Write(&sb, Input{
		Thresholds: []experiments.ThresholdRow{
			{Alarm: 4000, Engage: 12000, TimeToEngage: 26 * time.Second, PeakJGR: 13398, Defended: true},
		},
		Patch: []experiments.PatchRow{
			{Quota: 1, SingleBlocked: true, HeavyAppRefusals: 39},
			{Quota: 100, SingleBlocked: true, ColludersNeeded: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"threshold ablation", "| 4000 | 12000 |", "quota counterfactual", "| 1 | true | 39 | >80 |", "| 100 | true | 0 | 5 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteTelemetryHealthSection(t *testing.T) {
	var sb strings.Builder
	err := Write(&sb, Input{
		Telemetry: &device.Stats{
			IPCLogSeq: 9000, IPCLogDropped: 120, IPCLogRingDropped: 40,
			IPCLogReadErrors: 2, Transactions: 15000,
			TraceSpans: 4096, TraceSpanDrops: 310,
			Defender: &device.DefenderHealth{
				Detections: 3, Coverage: 0.87, FallbackUsed: true,
				ReadRetries: 4, AnalysisRestarts: 1, GuardStops: 2,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"## Telemetry health",
		"| Flight-recorder spans evicted | 310 |",
		"310 causal spans were evicted",
		"### Defender health",
		"| Engagements | 3 |",
		"| Last-window coverage | 0.87 |",
		"| Fallback attribution (last window) | true |",
		"| Log-read retries (cumulative) | 4 |",
		"| Innocent-kill guard stops (cumulative) | 2 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteTelemetryDefenderOnly(t *testing.T) {
	// No IPC-log records at all: the section still renders when the stats
	// carry defender health or flight-recorder evictions.
	var sb strings.Builder
	if err := Write(&sb, Input{Telemetry: &device.Stats{Defender: &device.DefenderHealth{Detections: 1, Coverage: 1}}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "### Defender health") {
		t.Error("defender-only telemetry section not rendered")
	}
	// A traced, undefended device whose span ring overflowed still gets
	// the section and its eviction warning.
	sb.Reset()
	if err := Write(&sb, Input{Telemetry: &device.Stats{TraceSpans: 8192, TraceSpanDrops: 5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "5 causal spans were evicted") {
		t.Error("flight-recorder evictions not reported without IPC-log records or a defender")
	}
	// A clean snapshot renders nothing.
	sb.Reset()
	if err := Write(&sb, Input{Telemetry: &device.Stats{}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Telemetry health") {
		t.Error("empty telemetry section rendered")
	}
}
