package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs the named workload (every workload when name is
// empty) n times in fresh processes with seeds 1..n, and prints each
// end-to-end metric's median, quartiles and quartile spread as a share
// of the median: the figure BENCHMARK.json's bounds are set from. A
// bound should be at least three times the spread. The printed-only
// wall-clock figures get the same rows, for comparison.
func steadiness(stdout, stderr io.Writer, name string, n, seconds int) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, s := range shapes() {
		if name == "" || s.name == name {
			names = append(names, s.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= n; seed++ {
			var out bytes.Buffer
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", w, seed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: %d of %d trials failed", w, seed, rep.Failed, rep.Attempted)
			}
			for k, m := range rep.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			for _, line := range lines {
				f := strings.Fields(string(line))
				if len(f) != 3 || !strings.HasPrefix(f[0], "wall.") {
					continue
				}
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return fmt.Errorf("%s seed %d: %q: %w", w, seed, line, err)
				}
				values[f[0]] = append(values[f[0]], v)
				units[f[0]] = f[2]
			}
		}
		fmt.Fprintf(stdout, "%s: %d runs of %d s, seeds 1..%d\n", w, n, seconds, n)
		fmt.Fprintf(stdout, "  %-22s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q1, med, q3 := quartiles(values[k])
			fmt.Fprintf(stdout, "  %-22s %12.4f %12.4f %12.4f %7.2f%% %s\n", k, q1, med, q3, 100*ratio(q3-q1, med), units[k])
		}
	}
	return nil
}
