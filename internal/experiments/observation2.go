package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// Obs2Row is one interface's IPC→JGR delay profile, the quantity behind
// the paper's Observation 2: "the duration from an IPC call being invoked
// to the creation of a JGR entry varies within a small value", expressed
// as Delay + Δ with Delay a stable floor and Δ ≥ 0 a bounded deviation.
type Obs2Row struct {
	Interface string
	Samples   int
	// Delay is the observed floor (the minimum IPC→JGR latency).
	Delay time.Duration
	// Delta is the observed deviation bound (max − min).
	Delta time.Duration
	// P90 of the raw delays, for the distribution's shape.
	P90 time.Duration
}

// Obs2Result bundles the per-interface delay rows with the fleet-wide
// mean Δ (the paper derives 1.8 ms and ships it as the defender default).
type Obs2Result struct {
	Rows      []Obs2Row
	MeanDelta time.Duration
}

// Observation2 measures, for every exploitable system interface, the
// delay between each logged IPC record and the JGR creation it causes —
// exactly the data the defender's Algorithm 1 keys on. It returns one row
// per interface plus the fleet-wide mean Δ. The interfaces share one
// instrumented device on purpose (the hook watches system_server's table
// across the whole session), so this measurement is inherently sequential.
func Observation2(scale Scale) (*Obs2Result, error) {
	calls := 120
	if scale == Full {
		calls = 1000
	}
	dev, err := device.Boot(device.Config{Seed: 91})
	if err != nil {
		return nil, err
	}
	if err := dev.Driver().EnableIPCLogging(); err != nil {
		return nil, err
	}

	// Observe every JGR add in system_server with its timestamp.
	var adds []time.Duration
	dev.SystemServer().VM().AddJGRHook(func(ev art.JGREvent) {
		if ev.Op == art.OpAdd {
			adds = append(adds, ev.Time)
		}
	})

	var rows []Obs2Row
	var deltaSum time.Duration
	targets := catalog.ExploitableInterfaces()
	for idx, row := range targets {
		app, err := dev.Apps().Install(fmt.Sprintf("com.obs2.meter%03d", idx))
		if err != nil {
			return nil, err
		}
		atk, err := workload.NewAttacker(dev, app, row.FullName())
		if err != nil {
			return nil, err
		}
		adds = adds[:0]
		if err := dev.Driver().TruncateLog(); err != nil {
			return nil, err
		}
		for i := 0; i < calls; i++ {
			if err := atk.Step(); err != nil {
				return nil, fmt.Errorf("experiments: obs2 %s: %w", row.FullName(), err)
			}
		}
		if _, err := dev.Driver().FlushLog(); err != nil {
			return nil, err
		}
		// Every exploitable interface is hosted in system_server, so its
		// window holds all of the attacker's records.
		var w binder.LogColumns
		if _, err := dev.Driver().AppendLogColumnsSince(kernel.SystemUid, dev.SystemServer().Pid(), 0, &w); err != nil {
			return nil, err
		}
		delays := causalDelays(&w, adds, app.Uid())
		if len(delays) == 0 {
			return nil, fmt.Errorf("experiments: obs2 %s: no delay samples", row.FullName())
		}
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		o := Obs2Row{
			Interface: row.FullName(),
			Samples:   len(delays),
			Delay:     delays[0],
			Delta:     delays[len(delays)-1] - delays[0],
			P90:       delays[len(delays)*9/10],
		}
		rows = append(rows, o)
		deltaSum += o.Delta
		app.ForceStop("obs2 done") // release entries before the next interface
	}
	return &Obs2Result{Rows: rows, MeanDelta: deltaSum / time.Duration(len(rows))}, nil
}

// causalDelays pairs each of the attacker's IPC records with the first
// JGR add that follows it (the attacker is the only caller while its
// window is measured).
func causalDelays(w *binder.LogColumns, adds []time.Duration, uid kernel.Uid) []time.Duration {
	sorted := append([]time.Duration(nil), adds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []time.Duration
	for row, from := range w.FromUid {
		if from != uid {
			continue
		}
		t := w.Time[row]
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= t })
		if i < len(sorted) {
			out = append(out, sorted[i]-t)
		}
	}
	return out
}
