// Command jgre-trace runs a traced JGRE attack and exports the causal
// flight-recorder spans as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing: one track per process, binder
// transact → dispatch → handler chains as nested slices, JGR table
// occupancy as a counter track, and the defender's window/score/decision
// spans on their own thread track.
//
// Usage:
//
//	jgre-trace [-seed n] [-sample n] [-capacity n] [-o file]
//	jgre-trace -fleet n [-workers n] ...
//
// The default is a single traced device running the Fig. 4 population
// plus one attacker on the fastest exploitable interface under a
// quick-scale defender, to first detection, exported from the device's
// Recorder().Spans(). -fleet runs the staged attack-rollout workload
// across n traced devices instead, merging each device's spans keyed by
// device index — the output is byte-identical for any worker count and
// to a fresh-boot run, which TestFleetTraceIdentical pins.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jgre-trace: ")

	seed := flag.Int64("seed", 1, "device seed (fleet mode: fleet seed)")
	sample := flag.Uint64("sample", 1, "trace one in every n transactions (1 = all)")
	capacity := flag.Int("capacity", 0, "flight-recorder span capacity (0 = default)")
	out := flag.String("o", "", "output file (default stdout)")
	fleetN := flag.Int("fleet", 0, "run the attack-rollout workload across n traced devices")
	workers := flag.Int("workers", 0, "fleet worker count (0 = one per CPU)")
	flag.Parse()

	tcfg := trace.Config{Enabled: true, Capacity: *capacity, Sample: *sample}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	var err error
	if *fleetN > 0 {
		err = runFleet(w, *fleetN, *workers, *seed, tcfg)
	} else {
		err = runSingle(w, *seed, tcfg)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runSingle traces one device: benign population plus one attacker under
// a quick-scale defender, run to first detection, spans exported. The
// span stream is a pure function of (seed, trace config) — the golden
// fig4 trace test pins the bytes.
func runSingle(w io.Writer, seed int64, tcfg trace.Config) error {
	dev, err := device.Boot(device.Config{Seed: seed, Trace: tcfg})
	if err != nil {
		return err
	}
	def, err := defense.New(dev, defense.Config{AlarmThreshold: 400, EngageThreshold: 1200})
	if err != nil {
		return err
	}
	sched := workload.NewScheduler(dev)
	if _, err := workload.Population(dev, sched, 3, seed, 2*time.Second); err != nil {
		return err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return err
	}
	evil.Start()
	atk, err := workload.NewAttacker(dev, evil, catalog.FastestInterfaces(1)[0])
	if err != nil {
		return err
	}
	sched.Add(atk)
	sched.Run(func() bool { return len(def.History()) > 0 }, 2_000_000)

	rec := dev.Recorder()
	fmt.Fprintf(os.Stderr, "jgre-trace: %d spans (%d evicted), %d detections\n",
		rec.Len(), rec.Dropped(), len(def.History()))
	return trace.ExportChrome(w, rec.Spans(), dev.ProcNames())
}

// runFleet traces the staged attack rollout across n devices. Each
// trial's spans are captured keyed by device index with pids remapped
// into a per-device range, so the merged export is independent of the
// worker count and equal to one whose devices boot fresh
// (TestFleetTraceIdentical checks both).
func runFleet(w io.Writer, n, workers int, seed int64, tcfg trace.Config) error {
	// pidStride separates the per-device pid ranges in the merged trace;
	// simulated pids stay far below it.
	const pidStride = 1 << 16
	var (
		mu    sync.Mutex
		spans []trace.SpanRecord
		names = make(map[int32]string)
		total int
		drops uint64
	)
	wl := fleet.AttackRollout(n).WithTraceCapture(func(index int, devSpans []trace.SpanRecord, devNames map[int32]string) {
		off := int32(index) * pidStride
		for i := range devSpans {
			devSpans[i].Pid += off
		}
		mu.Lock()
		defer mu.Unlock()
		total += len(devSpans)
		spans = append(spans, devSpans...)
		//maporder:free fills a map
		for pid, name := range devNames {
			names[pid+off] = fmt.Sprintf("dev%d/%s", index, name)
		}
	})
	cfg := fleet.Config{
		Devices: n,
		Workers: workers,
		Seed:    seed,
		Device:  device.Config{Trace: tcfg},
	}
	res, err := fleet.Run(context.Background(), cfg, wl)
	if err != nil {
		return err
	}
	if res.Trace != nil {
		drops = uint64(res.Trace.SpansDropped)
	}
	fmt.Fprintf(os.Stderr, "jgre-trace: fleet %d devices, %d spans merged (%d evicted on-device)\n",
		n, total, drops)
	return trace.ExportChrome(w, spans, names)
}
