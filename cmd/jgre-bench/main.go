// Command jgre-bench times the parallel experiment engine. It runs each
// parallelizable scenario from the registry twice — sequentially
// (workers=1) and on the full worker pool — verifies both produce
// identical canonical envelopes, and reports wall-clock timings and
// speedup. The sweep list is scenario.List() filtered to Parallelizable;
// nothing here is hand-maintained. -bench-json writes the measurements
// as JSON, the format of the repository's BENCH_*.json performance
// trajectory.
//
// Usage:
//
//	jgre-bench [-parallel n] [-sweeps fig3,fig6,...] [-scale quick|full]
//	           [-bench-json path] [-cpuprofile path] [-memprofile path]
//
// -sweeps defaults to every parallelizable scenario (see jgre-run list).
// -cpuprofile/-memprofile write pprof profiles covering the sweep runs,
// for drilling into the simulation hot path (`make bench-profile`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/scenario"
)

// SweepTiming is one sweep's sequential-vs-parallel measurement.
type SweepTiming struct {
	Sweep       string  `json:"sweep"`
	Shards      int     `json:"shards"`
	SequentialS float64 `json:"sequential_s"`
	ParallelS   float64 `json:"parallel_s"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"identical_output"`
}

// Report is the jgre-bench JSON output.
type Report struct {
	GeneratedUnix int64 `json:"generated_unix"`
	GoMaxProcs    int   `json:"gomaxprocs"`
	// NumCPU is the machine's hardware parallelism. Recording it beside
	// gomaxprocs keeps the envelope honest: a sweep run with GOMAXPROCS
	// raised above the physical core count cannot demonstrate a real
	// parallel win, and the pair makes that visible in the artifact.
	NumCPU    int           `json:"num_cpu"`
	Workers   int           `json:"workers"`
	Scale     string        `json:"scale"`
	Sweeps    []SweepTiming `json:"sweeps"`
	TotalSeqS float64       `json:"total_sequential_s"`
	TotalParS float64       `json:"total_parallel_s"`
	Speedup   float64       `json:"speedup"`
	// BootNs/CloneNs time a from-scratch device boot against a
	// copy-on-write clone of a sealed boot template — the per-shard cost
	// every sweep above actually pays. CloneBootRatio is boot/clone.
	BootNs         int64   `json:"boot_ns"`
	CloneNs        int64   `json:"clone_ns"`
	CloneBootRatio float64 `json:"clone_boot_ratio"`
	// CloneBytesPerOp/CloneAllocsPerOp are the clone's heap bytes and
	// allocations, counted the way BenchmarkDeviceClone's B/op and
	// allocs/op are. Unlike the timings they are deterministic; the
	// ceilings `make bench-smoke` holds that benchmark to live in
	// BENCH_hotpath.json, set from these measurements.
	CloneBytesPerOp  int64 `json:"clone_bytes_per_op"`
	CloneAllocsPerOp int64 `json:"clone_allocs_per_op"`
}

// timeBootClone fills rep's device fields: median from-scratch boot
// time, median clone time off one sealed template, and the clones' mean
// heap bytes and allocations.
func timeBootClone(rep *Report) error {
	const rounds = 15
	runtime.GC() // boot and clone phases start from the same heap state
	boots := make([]time.Duration, rounds)
	for i := range boots {
		t0 := time.Now()
		if _, err := device.BootFresh(device.Config{Seed: int64(i)}); err != nil {
			return err
		}
		boots[i] = time.Since(t0)
	}
	tmpl, err := device.BootFresh(device.Config{Seed: 1})
	if err != nil {
		return err
	}
	tmpl.Snapshot()
	runtime.GC()
	// Clones are ~µs; time batches so each sample is well above timer
	// granularity.
	const batch = 64
	clones := make([]time.Duration, rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range clones {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := tmpl.CloneWithSeed(int64(i*batch + j)); err != nil {
				return err
			}
		}
		clones[i] = time.Since(t0) / batch
	}
	runtime.ReadMemStats(&after)
	median := func(ds []time.Duration) int64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return int64(ds[len(ds)/2])
	}
	rep.BootNs, rep.CloneNs = median(boots), median(clones)
	if rep.CloneNs > 0 {
		rep.CloneBootRatio = float64(rep.BootNs) / float64(rep.CloneNs)
	}
	n := uint64(rounds * batch)
	rep.CloneBytesPerOp = int64((after.TotalAlloc - before.TotalAlloc) / n)
	rep.CloneAllocsPerOp = int64((after.Mallocs - before.Mallocs) / n)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("jgre-bench: ")

	workers := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for the parallel leg")
	names := flag.String("sweeps", "", "comma-separated scenarios to time (default: every parallelizable one)")
	scaleName := flag.String("scale", "quick", "quick or full")
	jsonPath := flag.String("bench-json", "", "write the report as JSON to this path ('-' or empty prints it)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep runs to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the sweeps) to this path")
	flag.Parse()

	scale, err := scenario.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	want := make(map[string]bool)
	if *names != "" {
		for _, n := range strings.Split(*names, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	var available []string
	rep := Report{
		GeneratedUnix: time.Now().Unix(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Workers:       *workers,
		Scale:         scale.String(),
	}
	// Boot/clone timing runs first, on a quiet heap — after the sweeps the
	// retained envelopes distort the GC share of both measurements.
	if err := timeBootClone(&rep); err != nil {
		log.Fatalf("boot/clone timing: %v", err)
	}
	fmt.Printf("%-12s             boot %8.3fms  clone  %8.3fms  ratio   %.1fx  clone %d B/op %d allocs/op\n",
		"DEVICE", float64(rep.BootNs)/1e6, float64(rep.CloneNs)/1e6, rep.CloneBootRatio,
		rep.CloneBytesPerOp, rep.CloneAllocsPerOp)

	ctx := context.Background()
	for _, sc := range scenario.List() {
		if !sc.Parallelizable {
			continue
		}
		available = append(available, sc.Name)
		if len(want) > 0 && !want[sc.Name] {
			continue
		}
		run := func(w int) (*scenario.Envelope, time.Duration, error) {
			t0 := time.Now()
			env, err := sc.Execute(ctx, scenario.Params{Scale: scale, Workers: w})
			return env, time.Since(t0), err
		}
		seqEnv, seq, err := run(1)
		if err != nil {
			log.Fatalf("%s sequential: %v", sc.Name, err)
		}
		parEnv, par, err := run(*workers)
		if err != nil {
			log.Fatalf("%s parallel: %v", sc.Name, err)
		}

		shards := 0
		if sc.Shards != nil {
			shards = sc.Shards(seqEnv.Result)
		}
		st := SweepTiming{
			Sweep:       sc.Name,
			Shards:      shards,
			SequentialS: seq.Seconds(),
			ParallelS:   par.Seconds(),
			Speedup:     seq.Seconds() / par.Seconds(),
			Identical:   identical(seqEnv, parEnv),
		}
		if !st.Identical {
			log.Fatalf("%s: workers=1 and workers=%d outputs differ — determinism broken", sc.Name, *workers)
		}
		rep.Sweeps = append(rep.Sweeps, st)
		rep.TotalSeqS += st.SequentialS
		rep.TotalParS += st.ParallelS
		fmt.Printf("%-12s %3d shards   seq %8.3fs   par(%d) %8.3fs   speedup %.2fx\n",
			sc.Name, st.Shards, st.SequentialS, *workers, st.ParallelS, st.Speedup)
	}
	if len(rep.Sweeps) == 0 {
		log.Fatalf("no sweeps selected (have: %s)", strings.Join(available, ", "))
	}
	if rep.TotalParS > 0 {
		rep.Speedup = rep.TotalSeqS / rep.TotalParS
	}
	fmt.Printf("%-12s              seq %8.3fs   par(%d) %8.3fs   speedup %.2fx\n",
		"TOTAL", rep.TotalSeqS, *workers, rep.TotalParS, rep.Speedup)

	writeJSON(*jsonPath, rep)
}

// writeJSON renders v indented to path ("" or "-" prints to stdout).
func writeJSON(path string, v any) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if path == "" || path == "-" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// identical compares the two legs' canonical envelopes — the same
// equality the registry equivalence tests assert (wall time and worker
// count, which legitimately differ, are zeroed).
func identical(a, b *scenario.Envelope) bool {
	ja, err1 := a.CanonicalJSON()
	jb, err2 := b.CanonicalJSON()
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
