// Command jgre-top is the simulator's live-metrics dashboard: it boots a
// device, drives a scenario while sampling the telemetry registry on the
// virtual clock, then renders a dumpsys/top-style report — sparklines
// for the sampled series, bucket bars for the latency/size histograms,
// and, when a defender is attached, each poll-window phase's count and
// mean.
//
// Usage:
//
// The chaos scenario adds the lifecycle fault layer — supervised service
// crashes, a defender that is killed and restored from its checkpoint,
// and a mid-run soft reboot — and renders a RECOVERY panel with the
// chaos/supervisor/checkpoint counters.
//
// The fleet scenario is different in kind: instead of one device on the
// virtual clock it runs the fleet engine's baseline and attack-rollout
// sweeps across -fleet-devices recycled slots and renders a FLEET panel
// — the engine's slot-turnover counters plus each sweep's streaming
// rollup (detection rate, innocent kills, time-to-detect percentiles).
//
//	jgre-top [-scenario idle|benign|attack|defended|chaos|fleet] [-tick 1s] [-duration 2m] [-width 60] [-fleet-devices 512]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/metrics/ascii"
	"repro/internal/services"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

const jgrSeries = `jgre_jgr_table_size{process="system_server"}`

func main() {
	log.SetFlags(0)
	log.SetPrefix("jgre-top: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, drives the chosen scenario and writes the dashboard
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jgre-top", flag.ContinueOnError)
	scenarioF := fs.String("scenario", "attack", "idle | benign | attack | defended | chaos | fleet")
	tick := fs.Duration("tick", time.Second, "virtual sampling interval")
	duration := fs.Duration("duration", 2*time.Minute, "virtual time to simulate")
	width := fs.Int("width", 60, "sparkline width in cells")
	fleetDevices := fs.Int("fleet-devices", 512, "fleet width for -scenario fleet")
	traceF := fs.Bool("trace", false, "turn the causal flight recorder on (populates the TRACE panel)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tcfg := trace.Config{Enabled: *traceF}
	if *scenarioF == "fleet" {
		return runFleet(stdout, *fleetDevices, tcfg)
	}

	dev, err := device.Boot(device.Config{Seed: 4, Trace: tcfg})
	if err != nil {
		return err
	}
	var def *defense.Defender
	var bouncer *defense.Bouncer
	switch *scenarioF {
	case "defended":
		if def, err = defense.New(dev, defense.Config{}); err != nil {
			return err
		}
	case "chaos":
		// Clients retry dead handles so the workload survives the churn the
		// chaos engine is about to inject.
		dev.SetClientRetry(services.RetryPolicy{Deadline: 3 * time.Second, Backoff: 50 * time.Millisecond})
		if bouncer, err = defense.NewBouncer(dev, defense.Config{}, defense.BounceSync); err != nil {
			return err
		}
	}

	sampler := telemetry.NewSampler(dev.Metrics(), *tick, int(*duration / *tick)+1)
	sampler.Track(
		jgrSeries,
		"jgre_binder_transactions_total",
		"jgre_binder_ring_occupancy_ratio",
		"jgre_device_processes",
		"jgre_event_queue_depth",
		"jgre_defender_coverage",
	)
	sample := func() { sampler.MaybeSample(dev.Clock().Now()) }

	switch *scenarioF {
	case "idle":
		// No actors: walk the clock by hand so the series still have a
		// timeline.
		for dev.Clock().Now() < *duration {
			sample()
			dev.Clock().Advance(*tick)
		}
	case "benign", "attack", "defended", "chaos":
		sched := workload.NewScheduler(dev)
		pop := 15
		if *scenarioF != "benign" {
			pop = 10
		}
		benign, err := workload.Population(dev, sched, pop, 4, time.Second)
		if err != nil {
			return err
		}
		if *scenarioF != "benign" {
			evil, err := dev.Apps().Install("com.evil.app")
			if err != nil {
				return err
			}
			atk, err := workload.NewAttacker(dev, evil, "clipboard.addPrimaryClipChangedListener")
			if err != nil {
				return err
			}
			sched.Add(atk)
			if *scenarioF == "chaos" {
				atk.SetAutoRestart(true)
				for _, b := range benign {
					b.SetAutoRestart(true)
				}
				chaos.New(dev, sched, chaos.Config{
					Seed:              7,
					CrashEvery:        10 * time.Second,
					CrashApps:         true,
					CrashAppServices:  true,
					RebootAt:          90 * time.Second,
					DefenderKillEvery: 45 * time.Second,
					DefenderDowntime:  2 * time.Second,
				}, bouncer)
				chaos.NewSupervisor(dev, sched, chaos.SupervisorConfig{})
			}
		}
		sched.Run(func() bool {
			sample()
			return dev.Clock().Now() >= *duration
		}, 5_000_000)
	default:
		return fmt.Errorf("unknown scenario %q", *scenarioF)
	}
	sample()

	if bouncer != nil {
		// Render whatever incarnation survived the chaos run.
		def = bouncer.Defender()
	}
	render(stdout, dev, def, sampler, *scenarioF, *width)
	return nil
}

// runFleet drives the fleet engine's baseline and attack-rollout sweeps
// and renders the FLEET panel from the engine's process-global counters
// plus each sweep's rollup.
func runFleet(stdout io.Writer, devices int, tcfg trace.Config) error {
	ctx := context.Background()
	var results []*fleet.Result
	for _, w := range []fleet.Workload{fleet.BaselineProbe(), fleet.AttackRollout(devices)} {
		res, err := fleet.Run(ctx, fleet.Config{Devices: devices, Seed: 1042,
			Device: device.Config{Trace: tcfg}}, w)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	renderFleet(stdout, results)
	return nil
}

// renderFleet prints the FLEET panel. Like the RECOVERY panel it is
// keyed on metric presence: the slot-turnover line renders only when the
// fleet engine registered its jgre_fleet_* counters this process.
func renderFleet(w io.Writer, results []*fleet.Result) {
	g := telemetry.Global()
	counter := func(name string) float64 {
		v, _ := g.Value(name)
		return v
	}
	if _, ok := g.Value("jgre_fleet_devices_total"); ok {
		fmt.Fprintf(w, "FLEET  devices=%.0f  trials=%.0f\n",
			counter("jgre_fleet_devices_total"), counter("jgre_fleet_trials_total"))
		fmt.Fprintf(w, "slots  clones=%.0f  recycles=%.0f  fresh boots=%.0f\n",
			counter("jgre_fleet_slot_clones_total"),
			counter("jgre_fleet_slot_recycles_total"),
			counter("jgre_fleet_slot_fresh_total"))
	}
	lat := func(label string, s fleet.Summary) {
		if s.Count == 0 {
			fmt.Fprintf(w, "  %-16s (no samples)\n", label)
			return
		}
		fmt.Fprintf(w, "  %-16s p50 %6dms  p90 %6dms  p99 %6dms  max %6dms\n",
			label, s.P50, s.P90, s.P99, s.Max)
	}
	for _, r := range results {
		fmt.Fprintf(w, "\n%s  %d devices (chunk %d, seed %d)\n",
			r.Workload, r.Devices, r.ChunkSize, r.Seed)
		fmt.Fprintf(w, "  infected %d  detected %d (rate %.3f)  recovered %d  false alarms %d\n",
			r.Infected, r.Detected, r.DetectionRate, r.Recovered, r.FalseAlarms)
		fmt.Fprintf(w, "  kills: colluders %d  innocents %d (%.2f per engagement)\n",
			r.ColludersCaught, r.InnocentKills, r.InnocentKillRate)
		lat("time-to-detect", r.TimeToDetectMS)
		lat("time-to-recover", r.TimeToRecoverMS)
		fmt.Fprintf(w, "  %-16s p50 %6d    p90 %6d    p99 %6d    max %6d\n",
			"peak JGR", r.PeakJGR.P50, r.PeakJGR.P90, r.PeakJGR.P99, r.PeakJGR.Max)
		// TRACE block: present only when the fleet ran with flight
		// recorders on; an explicit placeholder otherwise (never a blank).
		if t := r.Trace; t != nil {
			fmt.Fprintf(w, "  TRACE trials %d  attributed %d (rate %.3f)  spans dropped %d\n",
				t.Trials, t.Attributed, t.AttributionRate, t.SpansDropped)
			lat("attack→evidence", t.AttackToEvidenceMS)
			lat("evidence→detect", t.EvidenceToDetectMS)
			lat("attack→detect", t.AttackToDetectMS)
		} else {
			fmt.Fprintf(w, "  TRACE (no trace rollup — run with -trace; benign workloads record no causal chain)\n")
		}
	}
}

func render(w io.Writer, dev *device.Device, def *defense.Defender, sampler *telemetry.Sampler, scen string, width int) {
	s := dev.Stats()
	fmt.Fprintf(w, "JGRE-TOP  scenario=%s  t=%.0fs  tick=%v  samples=%d\n",
		scen, s.UptimeSeconds, sampler.Interval(), len(sampler.Series(jgrSeries)))
	fmt.Fprintf(w, "procs %d  apps %d  reboots %d  lmk %d  tx %d\n\n",
		s.Processes, s.RunningApps, s.SoftReboots, s.LMKKills, s.Transactions)

	fmt.Fprintf(w, "system_server JGR  %d / %d (peak %d)  %s\n",
		s.SystemServerJGR, s.JGRCap, s.SystemServerPeakJGR,
		ascii.Meter(float64(s.SystemServerJGR), float64(s.JGRCap), 20))
	spark(w, "JGR table", sampler.Values(jgrSeries), width)
	spark(w, "tx rate/s", telemetry.Rate(sampler.Series("jgre_binder_transactions_total")), width)
	spark(w, "ring occ.", sampler.Values("jgre_binder_ring_occupancy_ratio"), width)
	spark(w, "processes", sampler.Values("jgre_device_processes"), width)
	// Event-core vitals: pending events in the scheduler's priority queue
	// and how far virtual time has advanced. The queue depth is flat while
	// every actor reschedules itself and dips as actors finish.
	spark(w, "evt queue", sampler.Values("jgre_event_queue_depth"), width)
	if vt, ok := dev.Metrics().Value("jgre_event_virtual_time_seconds"); ok {
		fmt.Fprintf(w, "%-10s virtual clock at %.1fs\n", "evt time", vt)
	}

	if h, ok := histogram(dev, "jgre_binder_tx_bytes"); ok && h.Count() > 0 {
		fmt.Fprintf(w, "\nbinder transaction size (bytes, %d observed)\n", h.Count())
		fmt.Fprint(w, ascii.HistogramBars(h.Bounds(), h.BucketCounts(), 40))
	}

	counter := func(name string) float64 {
		v, _ := dev.Metrics().Value(name)
		return v
	}
	// RECOVERY panel: present only when a chaos engine registered its
	// counters on this device.
	if _, ok := dev.Metrics().Value("jgre_chaos_crashes_total"); ok {
		fmt.Fprintf(w, "\nRECOVERY  crashes=%.0f  reboots=%.0f  defender kills=%.0f restores=%.0f\n",
			counter("jgre_chaos_crashes_total"),
			counter("jgre_chaos_reboots_total"),
			counter("jgre_chaos_defender_kills_total"),
			counter("jgre_chaos_defender_restores_total"))
		fmt.Fprintf(w, "supervisor  restarts %.0f  failures %.0f  pending %.0f  backoff %.2fs\n",
			counter("jgre_supervisor_restarts_total"),
			counter("jgre_supervisor_failures_total"),
			counter("jgre_supervisor_pending"),
			counter("jgre_supervisor_backoff_seconds"))
		fmt.Fprintf(w, "checkpoints written %.0f  restored %.0f\n",
			counter("jgre_defender_checkpoints_total"),
			counter("jgre_defender_restores_total"))
	}

	// TRACE panel: flight-recorder health. The families read zero when
	// tracing is off; each one is queried through gaugeField, which —
	// mirroring spark()'s empty-series fix — renders an explicit
	// placeholder instead of a blank when a family is absent from the
	// registry entirely.
	fmt.Fprintf(w, "\nTRACE  spans=%s  evicted=%s  dumps=%s\n",
		gaugeField(dev, "jgre_trace_spans"),
		gaugeField(dev, "jgre_trace_span_drops_total"),
		gaugeField(dev, "jgre_trace_flight_dumps_total"))
	if dumps := dev.FlightDumps(); len(dumps) > 0 {
		fmt.Fprintf(w, "flight dumps (last %d):\n", min(len(dumps), 5))
		for _, d := range dumps[max(0, len(dumps)-5):] {
			fmt.Fprintf(w, "  %8.1fs %-32s %d spans\n", d.T.Seconds(), d.Reason, len(d.Spans))
		}
	}

	if def == nil {
		return
	}
	fmt.Fprintf(w, "\nDEFENDER  engagements=%d\n", len(def.History()))
	fmt.Fprintf(w, "correlator  types scored %.0f  no-overlap %.0f  tight-span %.0f  pairs swept %.0f\n",
		counter("jgre_defender_correlator_types_scored_total"),
		counter("jgre_defender_correlator_types_skipped_total"),
		counter("jgre_defender_correlator_span_shortcuts_total"),
		counter("jgre_defender_correlator_bucket_pairs_total"))
	spark(w, "coverage", sampler.Values("jgre_defender_coverage"), width)
	if h, ok := histogram(dev, `jgre_defender_phase_seconds{phase="read"}`); ok && h.Count() > 0 {
		fmt.Fprintf(w, "read-phase latency (s, %d windows)\n", h.Count())
		fmt.Fprint(w, ascii.HistogramBars(h.Bounds(), h.BucketCounts(), 40))
	}
	// Poll windows: each phase's window count and mean virtual time. The
	// four phases partition every window, so the means add up to the mean
	// window; the flight recorder (-trace) holds each window as a span.
	if len(def.History()) > 0 {
		fmt.Fprintf(w, "poll-window phases:\n")
		for _, phase := range []string{"read", "correlate", "score", "decide"} {
			if h, ok := histogram(dev, `jgre_defender_phase_seconds{phase="`+phase+`"}`); ok && h.Count() > 0 {
				mean := time.Duration(math.Round(h.Sum() / float64(h.Count()) * float64(time.Second)))
				fmt.Fprintf(w, "  %-10s %d windows  mean %v\n", phase, h.Count(), mean)
			}
		}
	}
	for _, det := range def.History() {
		fmt.Fprintln(w)
		fmt.Fprint(w, defense.FormatDetection(det))
	}
}

// spark prints one labelled sparkline row with its current value. An
// empty series — a clone whose lazy telemetry had not materialized when
// sampling started, or a metric the scenario never drives — renders as
// an explicit placeholder rather than a blank (or panicking) row.
func spark(w io.Writer, label string, values []float64, width int) {
	if len(values) == 0 {
		fmt.Fprintf(w, "%-10s (no samples)\n", label)
		return
	}
	fmt.Fprintf(w, "%-10s %s  now %g\n", label, ascii.Sparkline(values, width), values[len(values)-1])
}

// gaugeField formats one gauge family's value, or an explicit
// "(absent)" placeholder when the family was never registered — the
// same degrade-readably contract spark() applies to empty series.
func gaugeField(dev *device.Device, name string) string {
	v, ok := dev.Metrics().Value(name)
	if !ok {
		return "(absent)"
	}
	return fmt.Sprintf("%.0f", v)
}

// histogram fetches an existing histogram handle from the device
// registry without registering a new family.
func histogram(dev *device.Device, name string) (*telemetry.Histogram, bool) {
	if _, ok := dev.Metrics().Value(name); !ok {
		return nil, false
	}
	return dev.Metrics().Histogram(name, "", nil), true
}
