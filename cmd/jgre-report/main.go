// Command jgre-report runs the full audit plus a defense demonstration
// and writes a Markdown security-assessment report — the artifact the
// paper's authors would have attached to their Android Security Team bug
// filings.
//
// Usage:
//
//	jgre-report [-o report.md] [-thirdparty n] [-calls n] [-ablations]
//	            [-trace] [-trace-fleet n]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jgre-report: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, runs the audit and the defense demonstration, and
// writes the report to stdout, or to the -o file.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jgre-report", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	thirdParty := fs.Int("thirdparty", 1000, "synthetic Google Play population size")
	calls := fs.Int("calls", 200, "invocations per candidate during verification")
	ablations := fs.Bool("ablations", false, "also run and include the threshold/quota ablation tables (slower)")
	traceOn := fs.Bool("trace", false, "run the demo device with the causal flight recorder on and include a traced-fleet forensic rollup")
	traceFleet := fs.Int("trace-fleet", 96, "with -trace: fleet width for the causal forensic rollup")
	if err := fs.Parse(args); err != nil {
		return err
	}

	res, err := core.Audit(core.AuditConfig{
		ThirdPartyApps: *thirdParty,
		Dynamic:        true,
		VerifyCalls:    *calls,
		Seed:           1,
	})
	if err != nil {
		return err
	}

	// A defense demonstration for the report: one detection. With -trace
	// the demo device carries a flight recorder, so the telemetry section
	// gains the recorder health rows.
	devCfg := device.Config{Seed: 2}
	if *traceOn {
		devCfg.Trace = trace.Config{Enabled: true}
	}
	dev, err := device.Boot(devCfg)
	if err != nil {
		return err
	}
	def, err := defense.New(dev, defense.Config{})
	if err != nil {
		return err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return err
	}
	atk, err := workload.NewAttacker(dev, evil, "clipboard.addPrimaryClipChangedListener")
	if err != nil {
		return err
	}
	for evil.Running() {
		if err := atk.Step(); err != nil {
			break
		}
	}

	stats := dev.Stats()
	in := report.Input{
		Title:       "JGRE Vulnerability Assessment — simulated Android 6.0.1",
		Pipeline:    res,
		Detections:  def.History(),
		Telemetry:   &stats,
		GeneratedAt: fmt.Sprintf("virtual t=%.1fs after audit-device boot", dev.Clock().Now().Seconds()),
	}
	if *traceOn {
		// Traced fleet: the staged attack rollout with flight recorders
		// on, folded into the causal forensic rollup.
		res, err := fleet.Run(context.Background(), fleet.Config{
			Devices: *traceFleet,
			Seed:    1042,
			Device:  device.Config{Trace: trace.Config{Enabled: true}},
		}, fleet.AttackRollout(*traceFleet))
		if err != nil {
			return err
		}
		in.FleetForensics = res
	}
	if *ablations {
		thr, err := scenario.Execute(context.Background(), "thresholds", scenario.Params{})
		if err != nil {
			return err
		}
		in.Thresholds = thr.Result.([]experiments.ThresholdRow)
		patch, err := scenario.Execute(context.Background(), "patch", scenario.Params{})
		if err != nil {
			return err
		}
		in.Patch = patch.Result.([]experiments.PatchRow)
	}
	if *out == "" {
		return report.Write(stdout, in)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := report.Write(f, in); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return nil
}
