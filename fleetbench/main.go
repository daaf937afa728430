// Command fleetbench is the repository's benchmark: closed-loop fleet
// workloads run through fleet.Run with one worker, so devices run back
// to back in one process. See README.md for the workloads, the metrics
// and which layer moves which end-to-end number.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash fleetbench/run.sh --workload probe --seed 1 --seconds 20 --trace 0
//	bash fleetbench/run.sh --steady 10 --seconds 20
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics (and writes them to --results). The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: probe, probe-traced, defend or exhaust")
	seed := fs.Int64("seed", 1, "workload seed; every device seed derives from it")
	seconds := fs.Int("seconds", 10, "seconds of measured fleet runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	results := fs.String("results", "", "directory for the per-layer JSON table (with --trace 1)")
	steady := fs.Int("steady", 0, "run each workload (or --workload) this many times, seeds 1..n, and print each metric's median and quartile spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "fleetbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		if err := steadiness(stdout, stderr, *name, *steady, *seconds); err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 1
		}
		return 0
	}
	s, err := shapeByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	r := newRunner(s, *seed)
	dur := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "fleetbench %s: seed %d, %d s, closed loop, fleet.Run with 1 worker, %d devices per run\n",
		s.name, *seed, *seconds, s.batch)
	fmt.Fprintf(stdout, "  why: %s\n", s.why)
	var ms map[string]metric
	if *traced == 0 {
		var e *endToEndRun
		if e, err = r.endToEnd(dur); err == nil {
			ms = e.metrics
			fmt.Fprintf(stdout, "  rollup digest of the first fleet run: %s\n", e.first)
			fmt.Fprintln(stdout, "  wall clock (printed only; the ref_ metrics divide out the yardstick's drift):")
			printTable(stdout, e.wall)
		}
	} else {
		var t *tracedRun
		if t, err = r.perLayer(dur); err == nil {
			ms = t.metrics()
			fmt.Fprintf(stdout, "  rollup digest of the first fleet run: %s (traced and untraced identical in %d rounds)\n", t.first, t.rounds)
			if *results != "" {
				err = t.write(filepath.Join(*results, "layers-"+s.name+".json"), *seed, *seconds)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	printTable(stdout, ms)
	fmt.Fprintf(stdout, "  %-28s %14.4f %% (%d of %d trials)\n", "failed_pct",
		100*ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if r.firstErr != nil {
		fmt.Fprintln(stderr, "fleetbench: first failure:", r.firstErr)
	}
	rep := report{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printTable prints metrics sorted by name.
func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// write saves the per-layer table, with each timed part's share of
// trial time, as JSON.
func (t *tracedRun) write(path string, seed int64, seconds int) error {
	b, err := json.MarshalIndent(struct {
		Workload      string             `json:"workload"`
		Seed          int64              `json:"seed"`
		Seconds       int                `json:"seconds"`
		Rounds        int                `json:"rounds"`
		TracedDevices int64              `json:"traced_devices"`
		Digest        string             `json:"first_rollup_digest"`
		Metrics       map[string]metric  `json:"metrics"`
		TrialShare    map[string]float64 `json:"trial_time_share_pct"`
	}{t.r.s.name, seed, seconds, t.rounds, t.l.trials, t.first, t.metrics(), t.shares()}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
