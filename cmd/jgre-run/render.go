package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// render writes the text report for a scenario result and reports
// whether the result's type has one. Results without a renderer (the
// fleet and chaos rollups) are printed as the envelope JSON instead.
func render(w io.Writer, result any) bool {
	switch res := result.(type) {
	case string:
		fmt.Fprint(w, res)
	case *scenario.HeadlineSummary:
		renderHeadline(w, res)
	case analysis.Funnel:
		fmt.Fprint(w, core.FormatFunnel(res))
	case []experiments.AttackCurve:
		renderFig3(w, res)
	case *experiments.Fig4Result:
		renderFig4(w, res)
	case *experiments.Fig5Result:
		renderFig5(w, res)
	case *experiments.Fig6Result:
		renderFig6(w, res)
	case *experiments.Obs2Result:
		renderObs2(w, res)
	case []experiments.BypassRow:
		renderBypass(w, res)
	case []experiments.Fig8Row:
		renderFig8(w, res)
	case *experiments.Fig9Result:
		renderFig9(w, res)
	case *experiments.Fig10Result:
		renderFig10(w, res)
	case []experiments.DelayRow:
		renderDelays(w, res)
	case *experiments.MultiPathResult:
		renderMultiPath(w, res)
	case []experiments.ThresholdRow:
		renderThresholds(w, res)
	case *experiments.LimitationResult:
		renderLimitations(w, res)
	case []experiments.PatchRow:
		renderPatch(w, res)
	case *experiments.DegradationResult:
		renderDegradation(w, res)
	default:
		return false
	}
	return true
}

// renderHeadline prints the whole audit: the pipeline funnel, Tables
// I–V and the dynamic stage's verdicts.
func renderHeadline(w io.Writer, res *scenario.HeadlineSummary) {
	fmt.Fprint(w, core.FormatFunnel(res.Funnel))
	for _, table := range []func() string{core.FormatTableI, core.FormatTableII, core.FormatTableIII, core.FormatTableIV, core.FormatTableV} {
		fmt.Fprintln(w)
		fmt.Fprint(w, table())
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, core.FormatFindings(&analysis.VerifyResult{Confirmed: res.Confirmed, Rejected: res.Rejected}))
}

func renderFig3(w io.Writer, curves []experiments.AttackCurve) {
	sort.Slice(curves, func(i, j int) bool { return curves[i].Duration < curves[j].Duration })
	fmt.Fprintln(w, "Fig. 3: JGR exhaustion time per vulnerable interface (victim table growth to the cap)")
	fmt.Fprintf(w, "%-55s %12s %10s\n", "INTERFACE", "DURATION", "CALLS")
	aborted := 0
	for _, c := range curves {
		note := ""
		if c.Err != "" {
			note = "  ABORTED: " + c.Err
			aborted++
		}
		fmt.Fprintf(w, "%-55s %12.1fs %10d%s\n", c.Interface, c.Duration.Seconds(), c.Calls, note)
	}
	if aborted > 0 {
		fmt.Fprintf(w, "\nWARNING: %d of %d attacks aborted on an IPC error before exhaustion\n", aborted, len(curves))
	}
	if len(curves) > 1 {
		fmt.Fprintf(w, "\nfastest %-45s %8.1fs\n", curves[0].Interface, curves[0].Duration.Seconds())
		last := curves[len(curves)-1]
		fmt.Fprintf(w, "slowest %-45s %8.1fs\n", last.Interface, last.Duration.Seconds())
	}
	if len(curves) == 1 {
		fmt.Fprintln(w)
		fmt.Fprint(w, metrics.ASCIIChart("victim JGR table vs. attack time", 64, 16, &curves[0].Series))
		fmt.Fprintln(w, "\n# t_seconds\tjgr_count")
		fmt.Fprint(w, curves[0].Series.TSV())
	}
}

func renderFig4(w io.Writer, res *experiments.Fig4Result) {
	fmt.Fprintln(w, "Fig. 4: system_server JGR table size and running processes under the benign top-app workload")
	fmt.Fprintln(w, "# t_seconds\tjgr_size\tprocesses")
	for i, p := range res.JGR.Points {
		fmt.Fprintf(w, "%.0f\t%.0f\t%.0f\n", p.T.Seconds(), p.V, res.Processes.Points[i].V)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, metrics.ASCIIChart("system_server JGR table size over the benign workload", 64, 12, &res.JGR))
	fmt.Fprintf(w, "\nJGR band: [%.0f, %.0f] (paper: 1,000–3,000)\n", res.JGR.Min(), res.JGR.Max())
	fmt.Fprintf(w, "process band: [%.0f, %.0f] (paper: 382–421)\n", res.Processes.Min(), res.Processes.Max())
	fmt.Fprintf(w, "peak concurrent user apps: %d (paper: ≈39); LMK kills: %d\n", res.MaxConcurrentApps, res.LMKKills)
}

func renderFig5(w io.Writer, res *experiments.Fig5Result) {
	fmt.Fprintf(w, "Fig. 5: execution time of telephony.registry.listenForSubscriber over %d calls\n", res.Calls)
	fmt.Fprintln(w, "# call_index\texec_us")
	step := res.Calls / 100
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(res.ExecTimes); i += step {
		fmt.Fprintf(w, "%d\t%d\n", i, res.ExecTimes[i].Microseconds())
	}
	fmt.Fprintf(w, "first call %v, last call %v\n", res.ExecTimes[0], res.ExecTimes[len(res.ExecTimes)-1])
}

func renderFig6(w io.Writer, res *experiments.Fig6Result) {
	fmt.Fprintf(w, "Fig. 6: execution-time distributions over %d calls per vulnerable interface\n", res.CallsPer)
	fmt.Fprintf(w, "%-55s %8s %8s %8s %8s\n", "INTERFACE", "MIN_us", "P50_us", "P90_us", "MAX_us")
	names := make([]string, 0, len(res.PerInterface))
	for n := range res.PerInterface {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := res.PerInterface[n]
		fmt.Fprintf(w, "%-55s %8.0f %8.0f %8.0f %8.0f\n", n, s.Min, s.P50, s.P90, s.Max)
	}
}

func renderObs2(w io.Writer, res *experiments.Obs2Result) {
	rows := append([]experiments.Obs2Row(nil), res.Rows...)
	fmt.Fprintln(w, "Observation 2: per-interface IPC→JGR delay = Delay + Δ (paper §V)")
	fmt.Fprintf(w, "%-55s %10s %10s %10s\n", "INTERFACE", "DELAY_us", "DELTA_us", "P90_us")
	sort.Slice(rows, func(i, j int) bool { return rows[i].Interface < rows[j].Interface })
	for _, r := range rows {
		fmt.Fprintf(w, "%-55s %10d %10d %10d\n", r.Interface,
			r.Delay.Microseconds(), r.Delta.Microseconds(), r.P90.Microseconds())
	}
	fmt.Fprintf(w, "\nfleet-wide mean Δ = %v (the paper derives 1.8 ms and uses it as the default)\n",
		res.MeanDelta.Round(time.Microsecond))
}

func renderBypass(w io.Writer, rows []experiments.BypassRow) {
	fmt.Fprintln(w, "Protection bypass study (§IV-B/IV-C): helper guards vs. direct binder access")
	fmt.Fprintf(w, "%-50s %-18s %-15s %s\n", "INTERFACE", "PROTECTION", "HELPER BOUNDED", "DIRECT PATH")
	still := 0
	for _, r := range rows {
		direct := "bounded"
		if r.DirectUnbounded {
			direct = "EXPLOITABLE"
			if r.SpoofUsed {
				direct = `EXPLOITABLE (pkg="android" spoof)`
			}
			still++
		}
		fmt.Fprintf(w, "%-50s %-18s %-15v %s\n", r.Interface, r.Protection, r.HelperBounded, direct)
	}
	fmt.Fprintf(w, "\n%d of %d protected interfaces remain exploitable\n", still, len(rows))
}

func renderFig8(w io.Writer, rows []experiments.Fig8Row) {
	fmt.Fprintln(w, "Fig. 8: suspicious IPC calls, malicious app vs. top benign app")
	fmt.Fprintf(w, "%-5s %-55s %12s %12s %-8s\n", "IDX", "VULNERABILITY", "MALICIOUS", "TOP BENIGN", "STOPPED")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5d %-55s %12d %12d %-8v\n", r.Index, r.Interface, r.MaliciousScore, r.TopBenignScore, r.Killed)
	}
}

func renderFig9(w io.Writer, res *experiments.Fig9Result) {
	fmt.Fprintln(w, "Fig. 9: suspicious IPC calls of the top apps under a 4-app colluding attack")
	fmt.Fprintf(w, "colluders: %v; benign bystander: %s; recovered: %v\n", res.Colluders, res.Bystander, res.Recovered)
	for i, delta := range res.Deltas {
		fmt.Fprintf(w, "\nΔ = %d µs:\n", delta.Microseconds())
		for rank, s := range res.Top[i] {
			tag := "malicious"
			if s.Package == res.Bystander {
				tag = "benign"
			} else if !isColluder(res.Colluders, s.Package) {
				tag = "benign"
			}
			fmt.Fprintf(w, "  #%d uid %d %-22s %8d suspicious calls (%s)\n", rank+1, s.Uid, s.Package, s.Score, tag)
		}
	}
}

func isColluder(colluders []string, pkg string) bool {
	for _, c := range colluders {
		if c == pkg {
			return true
		}
	}
	return false
}

func renderFig10(w io.Writer, res *experiments.Fig10Result) {
	fmt.Fprintln(w, "Fig. 10: IPC call latency vs. payload, stock vs. defense framework")
	fmt.Fprintln(w, "# payload_kb\tstock_us\twith_defense_us")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%d\t%d\t%d\n", r.PayloadKB, r.Stock.Microseconds(), r.WithDefense.Microseconds())
	}
	fmt.Fprintf(w, "max added per call: %v; aggregate overhead: %.1f%%\n", res.MaxAdded, res.OverheadPercent)
	var stock, defended metrics.Series
	stock.Name = "stock"
	defended.Name = "with defense"
	for _, r := range res.Rows {
		t := time.Duration(r.PayloadKB) * time.Second // x-axis: KB rendered as "s"
		stock.Add(t, float64(r.Stock.Microseconds()))
		defended.Add(t, float64(r.WithDefense.Microseconds()))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, metrics.ASCIIChart("IPC latency (µs) vs. payload (KB on x-axis)", 64, 14, &stock, &defended))
}

func renderDelays(w io.Writer, rows []experiments.DelayRow) {
	fmt.Fprintln(w, "§V-D1: response delays (attack-source identification)")
	fmt.Fprintf(w, "%-55s %12s %10s %s\n", "VULNERABILITY", "DELAY", "RECORDS", "DEFENDED")
	over := 0
	var worst experiments.DelayRow
	for _, r := range rows {
		fmt.Fprintf(w, "%-55s %12v %10d %v\n", r.Interface, r.AnalysisTime.Round(time.Millisecond), r.Records, r.Defended)
		if r.AnalysisTime > time.Second {
			over++
		}
		if r.AnalysisTime > worst.AnalysisTime {
			worst = r
		}
	}
	fmt.Fprintf(w, "\n%d of %d delays exceed one second; worst: %s at %v\n",
		over, len(rows), worst.Interface, worst.AnalysisTime.Round(time.Millisecond))
}

func renderThresholds(w io.Writer, rows []experiments.ThresholdRow) {
	fmt.Fprintln(w, "defender threshold ablation (alarm / engage)")
	fmt.Fprintf(w, "%-8s %-8s %14s %10s %12s %10s %s\n", "ALARM", "ENGAGE", "TIME-TO-ENGAGE", "PEAK JGR", "MARGIN", "RECORDS", "DEFENDED")
	for _, r := range rows {
		note := ""
		if r.Alarm == 4000 && r.Engage == 12000 {
			note = "  ← paper"
		}
		fmt.Fprintf(w, "%-8d %-8d %13.1fs %10d %12d %10d %v%s\n",
			r.Alarm, r.Engage, r.TimeToEngage.Seconds(), r.PeakJGR, r.Margin(), r.Records, r.Defended, note)
	}
}

func renderMultiPath(w io.Writer, res *experiments.MultiPathResult) {
	fmt.Fprintf(w, "§VI multi-path evasion study (%d execution paths per call)\n", res.Paths)
	fmt.Fprintf(w, "wide pairing window:  classified=%d  unclassified=%d  top benign=%d\n",
		res.ClassifiedScore, res.UnclassifiedScore, res.TopBenignScore)
	fmt.Fprintf(w, "tight pairing window: classified=%d  unclassified=%d\n",
		res.TightClassified, res.TightUnclassified)
	fmt.Fprintf(w, "attacker killed: %v, victim recovered: %v\n", res.AttackerKilled, res.Recovered)
	fmt.Fprintln(w, "→ path smearing does not evade Algorithm 1; classification recovers full per-path attribution")
}

func renderLimitations(w io.Writer, res *experiments.LimitationResult) {
	fmt.Fprintln(w, "§VI limitation study: JGRE through a non-Binder channel (broadcast/ASHMEM)")
	fmt.Fprintf(w, "JGR monitor engaged: %v\n", res.Engaged)
	fmt.Fprintf(w, "attacker attributed by Algorithm 1: %v (no binder records exist for the channel)\n", res.AttackerScored)
	fmt.Fprintf(w, "attacker killed: %v; device rebooted: %v\n", res.AttackerKilled, res.Rebooted)
	fmt.Fprintln(w, "→ the defense depends on the binder-driver evidence stream; covert channels are out of reach (paper §VI)")
}

func renderPatch(w io.Writer, rows []experiments.PatchRow) {
	fmt.Fprintln(w, "§IV-B counterfactual: patch EVERY interface with a per-process quota")
	fmt.Fprintf(w, "%-8s %-14s %-18s %-18s %s\n", "QUOTA", "1-APP BLOCKED", "HEAVY-APP REFUSALS", "ALL REFUSALS", "COLLUDERS TO REBOOT")
	for _, r := range rows {
		colluders := fmt.Sprintf("%d", r.ColludersNeeded)
		if r.ColludersNeeded == 0 {
			colluders = ">80"
		}
		fmt.Fprintf(w, "%-8d %-14v %-18d %-18d %s\n", r.Quota, r.SingleBlocked, r.HeavyAppRefusals, r.BenignRefusals, colluders)
	}
	fmt.Fprintln(w, "\n→ small quotas break legitimate heavy apps; large quotas fall to a handful of")
	fmt.Fprintln(w, "  colluders, because every service shares system_server's one JGR table (§IV-B)")
}

func renderDegradation(w io.Writer, res *experiments.DegradationResult) {
	fmt.Fprintf(w, "telemetry fault-injection degradation sweep, axis %q (innocent-kill bound %d)\n",
		res.Axis, res.InnocentKillBound)
	fmt.Fprintf(w, "%-14s %8s %10s %10s %12s %10s %9s %7s\n",
		"POINT", "ACCURACY", "RETENTION", "COVERAGE", "RESPONSE", "FALLBACKS", "INNOCENT", "GUARDED")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-14s %8.2f %10.3f %10.3f %10.1fms %6d/%-3d %9d %7d\n",
			p.Label, p.Accuracy, p.ScoreRetention, p.MeanCoverage,
			p.MeanResponseDelayMicros/1000, p.FallbackTrials, p.Trials,
			p.InnocentKills, p.GuardStops)
	}
	fmt.Fprintln(w)
	switch res.Axis {
	case "drop":
		fmt.Fprintln(w, "→ accuracy and score retention degrade monotonically in the drop rate (nested")
		fmt.Fprintln(w, "  survivor sets by construction); below the coverage floor, retained-ref")
		fmt.Fprintln(w, "  fallback attribution keeps the attacker identified")
	case "jitter":
		fmt.Fprintln(w, "→ adaptive Δ widens with the observed jitter to keep the attacker ranked;")
		fmt.Fprintln(w, "  retention above 1 is the wider window crediting extra pairings (recall")
		fmt.Fprintln(w, "  over precision), bounded by MaxDelay")
	case "ring":
		fmt.Fprintln(w, "→ eviction truncates the window to its most recent suffix — exactly where")
		fmt.Fprintln(w, "  the attack is hottest — so identification survives deep truncation")
	}
	fmt.Fprintln(w, "  (no point may exceed the configured innocent-kill bound)")
}
