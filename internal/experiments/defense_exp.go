package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/parallel"
	"repro/internal/services"
	"repro/internal/workload"
)

// defenseThresholds scales the defender thresholds with the experiment
// size, keeping the paper's 1:3 alarm:engage ratio.
func defenseThresholds(scale Scale) defense.Config {
	if scale == Full {
		return defense.Config{} // paper defaults: 4,000 / 12,000
	}
	return defense.Config{AlarmThreshold: 400, EngageThreshold: 1200}
}

// Fig8Row is one x-position of Fig. 8: for one known vulnerability, the
// suspicious-call counts of the malicious app and of the top-scoring
// benign app.
type Fig8Row struct {
	Index          int
	Interface      string
	MaliciousScore int64
	TopBenignScore int64
	Detected       bool
	Killed         bool
}

// Fig8SingleAttacker reproduces Fig. 8: for every known vulnerability,
// run a benign population plus one malicious app attacking it, engage the
// defender (Δ = 1.8 ms, §V-C), and compare suspicious-call counts.
// Quick scale samples every 6th vulnerability with a 20-app population.
// Each vulnerability runs on its own device (seed 50+idx), so the rows
// are identical for any worker count (0 = one per CPU, 1 = sequential).
func Fig8SingleAttacker(ctx context.Context, scale Scale, workers int) ([]Fig8Row, error) {
	rows := catalog.ExploitableInterfaces()
	stride, population := 6, 20
	if scale == Full {
		stride, population = 1, 100
	}
	var picks []int
	for i := 0; i < len(rows); i += stride {
		picks = append(picks, i)
	}
	return parallel.Map(ctx, picks, workers, func(_ context.Context, _ int, i int) (Fig8Row, error) {
		row, err := fig8Once(scale, i, rows[i], population)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("experiments: fig8 %s: %w", rows[i].FullName(), err)
		}
		return row, nil
	})
}

func fig8Once(scale Scale, idx int, iface catalog.Interface, population int) (Fig8Row, error) {
	dev, err := device.Boot(device.Config{Seed: int64(50 + idx)})
	if err != nil {
		return Fig8Row{}, err
	}
	def, err := defense.New(dev, defenseThresholds(scale))
	if err != nil {
		return Fig8Row{}, err
	}
	sched := workload.NewScheduler(dev)
	if _, err := workload.Population(dev, sched, population, int64(idx), 2*time.Second); err != nil {
		return Fig8Row{}, err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return Fig8Row{}, err
	}
	atk, err := workload.NewAttacker(dev, evil, iface.FullName())
	if err != nil {
		return Fig8Row{}, err
	}
	sched.Add(atk)
	sched.Run(func() bool { return len(def.History()) > 0 }, 2_000_000)

	hist := def.History()
	if len(hist) == 0 {
		return Fig8Row{}, errors.New("defender never engaged")
	}
	det := hist[0]
	res := Fig8Row{Index: idx + 1, Interface: iface.FullName(), Detected: det.Recovered}
	for _, s := range det.Scores {
		if s.Package == "com.evil.app" {
			res.MaliciousScore = s.Score
		} else if s.Score > res.TopBenignScore {
			res.TopBenignScore = s.Score
		}
	}
	for _, k := range det.Killed {
		if k == "com.evil.app" {
			res.Killed = true
		}
	}
	return res, nil
}

// Fig9Result holds the Δ-sensitivity sweep for the colluding attack.
type Fig9Result struct {
	// Deltas are the swept Δ values (the paper uses 79 µs, 1,900 µs and
	// 3,583 µs).
	Deltas []time.Duration
	// Top[i] lists the top five apps (by suspicious-call count) for
	// Deltas[i].
	Top [][]defense.AppScore
	// Colluders are the malicious packages, for checking the ranking.
	Colluders []string
	Bystander string
	Recovered bool
}

// PaperDeltas are the Δ values of Fig. 9.
var PaperDeltas = []time.Duration{79 * time.Microsecond, 1900 * time.Microsecond, 3583 * time.Microsecond}

// Fig9Colluders reproduces Fig. 9: four colluding apps attack four
// different vulnerable interfaces while a chatty-but-benign app fires IPC
// calls with 0–100 ms gaps; Algorithm 1 is re-run with each Δ and must
// rank the four colluders above the bystander every time. The attack run
// itself is one shared-device simulation, but the per-Δ rescoring fans
// out across workers: Algorithm 1 only reads the frozen detection window,
// so every Δ scores the same records and the result is identical for any
// worker count.
func Fig9Colluders(ctx context.Context, scale Scale, workers int) (*Fig9Result, error) {
	dev, err := device.Boot(device.Config{Seed: 99})
	if err != nil {
		return nil, err
	}
	cfg := defenseThresholds(scale)
	cfg.KeepRaw = true
	def, err := defense.New(dev, cfg)
	if err != nil {
		return nil, err
	}
	sched := workload.NewScheduler(dev)
	if _, err := workload.Population(dev, sched, 10, 9, 2*time.Second); err != nil {
		return nil, err
	}
	res := &Fig9Result{Deltas: PaperDeltas, Bystander: "com.chatty.app"}
	// Four fast vulnerable interfaces from distinct services: colluders
	// that pick slow interfaces would not accumulate enough calls inside
	// the detection window to matter.
	targets := catalog.FastestInterfaces(4)
	for i, tgt := range targets {
		app, err := dev.Apps().Install(fmt.Sprintf("com.collude.app%d", i))
		if err != nil {
			return nil, err
		}
		res.Colluders = append(res.Colluders, app.Package())
		atk, err := workload.NewAttacker(dev, app, tgt)
		if err != nil {
			return nil, err
		}
		sched.Add(atk)
	}
	chattyApp, err := dev.Apps().Install(res.Bystander)
	if err != nil {
		return nil, err
	}
	chatty, err := workload.NewChattyApp(dev, chattyApp, 17)
	if err != nil {
		return nil, err
	}
	sched.Add(chatty)

	sched.Run(func() bool { return len(def.History()) > 0 }, 2_000_000)
	hist := def.History()
	if len(hist) == 0 {
		return nil, errors.New("defender never engaged")
	}
	det := hist[0]
	res.Recovered = det.Recovered
	top, err := parallel.Map(ctx, res.Deltas, workers, func(_ context.Context, _ int, delta time.Duration) ([]defense.AppScore, error) {
		scores := def.ScoreWithDelta(&det.RawWindow, det.RawAddTimes, delta)
		if len(scores) > 5 {
			scores = scores[:5]
		}
		return scores, nil
	})
	if err != nil {
		return nil, err
	}
	res.Top = top
	return res, nil
}

// DelayRow is one §V-D1 response-delay measurement.
type DelayRow struct {
	Interface    string
	AnalysisTime time.Duration
	Records      int
	Defended     bool
}

// ResponseDelays measures, for every known vulnerability (54 system + 3
// prebuilt-app interfaces), the defender's source-identification delay.
// Quick scale samples every 6th system interface but always includes the
// paper's named outlier, midi.registerDeviceServer. Every measurement
// boots its own device (seeds 70+idx / 80+idx), so the rows are identical
// for any worker count (0 = one per CPU, 1 = sequential).
func ResponseDelays(ctx context.Context, scale Scale, workers int) ([]DelayRow, error) {
	rows := catalog.ExploitableInterfaces()
	stride := 6
	if scale == Full {
		stride = 1
	}
	var picks []catalog.Interface
	seen := make(map[string]bool)
	for i := 0; i < len(rows); i += stride {
		picks = append(picks, rows[i])
		seen[rows[i].FullName()] = true
	}
	if !seen["midi.registerDeviceServer"] {
		if row, ok := catalog.InterfaceByName("midi.registerDeviceServer"); ok {
			picks = append(picks, row)
		}
	}
	// One shard per measurement: the system-service picks followed by the
	// prebuilt-app victims, in canonical order.
	type delayShard struct {
		idx   int
		iface catalog.Interface     // system-service victim when app == nil
		app   *catalog.AppInterface // prebuilt-app victim
	}
	var shards []delayShard
	for i, iface := range picks {
		shards = append(shards, delayShard{idx: i, iface: iface})
	}
	for i, row := range catalog.PrebuiltAppInterfaces() {
		r := row
		shards = append(shards, delayShard{idx: i, app: &r})
	}
	return parallel.Map(ctx, shards, workers, func(_ context.Context, _ int, s delayShard) (DelayRow, error) {
		if s.app != nil {
			dr, err := appDelayOnce(scale, s.idx, *s.app)
			if err != nil {
				return DelayRow{}, fmt.Errorf("experiments: delay %s: %w", s.app.FullName(), err)
			}
			return dr, nil
		}
		dr, err := delayOnce(scale, s.idx, s.iface)
		if err != nil {
			return DelayRow{}, fmt.Errorf("experiments: delay %s: %w", s.iface.FullName(), err)
		}
		return dr, nil
	})
}

func delayOnce(scale Scale, idx int, iface catalog.Interface) (DelayRow, error) {
	dev, err := device.Boot(device.Config{Seed: int64(70 + idx)})
	if err != nil {
		return DelayRow{}, err
	}
	def, err := defense.New(dev, defenseThresholds(scale))
	if err != nil {
		return DelayRow{}, err
	}
	sched := workload.NewScheduler(dev)
	if _, err := workload.Population(dev, sched, 15, int64(idx), 2*time.Second); err != nil {
		return DelayRow{}, err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return DelayRow{}, err
	}
	atk, err := workload.NewAttacker(dev, evil, iface.FullName())
	if err != nil {
		return DelayRow{}, err
	}
	sched.Add(atk)
	sched.Run(func() bool { return len(def.History()) > 0 }, 2_000_000)
	hist := def.History()
	if len(hist) == 0 {
		return DelayRow{}, errors.New("defender never engaged")
	}
	det := hist[0]
	return DelayRow{
		Interface:    iface.FullName(),
		AnalysisTime: det.AnalysisTime,
		Records:      det.Records,
		Defended:     det.Recovered && dev.SoftReboots() == 0,
	}, nil
}

func appDelayOnce(scale Scale, idx int, row catalog.AppInterface) (DelayRow, error) {
	dev, err := device.Boot(device.Config{Seed: int64(80 + idx)})
	if err != nil {
		return DelayRow{}, err
	}
	def, err := defense.New(dev, defenseThresholds(scale))
	if err != nil {
		return DelayRow{}, err
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		return DelayRow{}, err
	}
	atk, err := workload.NewAppAttacker(dev, evil, row)
	if err != nil {
		return DelayRow{}, err
	}
	sched := workload.NewScheduler(dev)
	sched.Add(atk)
	sched.Run(func() bool { return len(def.History()) > 0 }, 2_000_000)
	hist := def.History()
	if len(hist) == 0 {
		return DelayRow{}, errors.New("defender never engaged")
	}
	det := hist[0]
	return DelayRow{
		Interface:    row.FullName(),
		AnalysisTime: det.AnalysisTime,
		Records:      det.Records,
		Defended:     det.Recovered,
	}, nil
}

// Fig10Row is one payload point of the IPC-overhead sweep.
type Fig10Row struct {
	PayloadKB   int
	Stock       time.Duration
	WithDefense time.Duration
}

// Fig10Result summarizes the overhead sweep.
type Fig10Result struct {
	Rows []Fig10Row
	// MaxAdded is the largest absolute per-call cost the defense adds
	// (the paper measures at most 1.247 ms).
	MaxAdded time.Duration
	// OverheadPercent is the aggregate relative increase (paper: ≈46.7%).
	OverheadPercent float64
}

// Fig10IPCOverhead reproduces Fig. 10: deliver byte arrays of growing
// size through a service, with and without the defense's IPC recording,
// and measure per-call latency. Full scale walks 500 rounds of +1,024 B.
func Fig10IPCOverhead(scale Scale) (*Fig10Result, error) {
	rounds, stepKB := 100, 5
	if scale == Full {
		rounds, stepKB = 500, 1
	}
	dev, err := device.Boot(device.Config{Seed: 61})
	if err != nil {
		return nil, err
	}
	app, err := dev.Apps().Install("com.bench.app")
	if err != nil {
		return nil, err
	}
	code, ok := services.CodeFor("audio", "getState")
	if !ok {
		return nil, errors.New("audio.getState missing")
	}
	svcRef, err := dev.ServiceManager().GetService("audio", app.Start())
	if err != nil {
		return nil, err
	}
	// Average several calls per point: the service handler draws random
	// jitter per call, and a single sample would drown the logging cost
	// at small payloads.
	const callsPerPoint = 8
	measure := func(kb int) (time.Duration, error) {
		var total time.Duration
		payload := make([]byte, kb*1024)
		for c := 0; c < callsPerPoint; c++ {
			data, reply := binder.NewParcel(), binder.NewParcel()
			data.WriteString("com.bench.app")
			data.WriteBytes(payload)
			t0 := dev.Clock().Now()
			if err := svcRef.Binder().Transact(code, data, reply); err != nil {
				return 0, err
			}
			total += dev.Clock().Now() - t0
		}
		return total / callsPerPoint, nil
	}

	res := &Fig10Result{}
	var stockSum, defSum time.Duration
	for i := 0; i < rounds; i++ {
		kb := i * stepKB
		dev.Driver().DisableIPCLogging()
		stock, err := measure(kb)
		if err != nil {
			return nil, err
		}
		if err := dev.Driver().EnableIPCLogging(); err != nil {
			return nil, err
		}
		withDef, err := measure(kb)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig10Row{PayloadKB: kb, Stock: stock, WithDefense: withDef})
		if added := withDef - stock; added > res.MaxAdded {
			res.MaxAdded = added
		}
		stockSum += stock
		defSum += withDef
	}
	dev.Driver().DisableIPCLogging()
	if stockSum > 0 {
		res.OverheadPercent = 100 * float64(defSum-stockSum) / float64(stockSum)
	}
	return res, nil
}

// BypassRow reports one protected interface's behaviour under the two
// access paths (Tables II and III, §IV-B/§IV-C).
type BypassRow struct {
	Interface  string
	Protection catalog.Protection
	// HelperBounded: going through the helper class stayed at the quota.
	HelperBounded bool
	// DirectUnbounded: the raw-binder path grew past the quota.
	DirectUnbounded bool
	// SpoofUsed marks the enqueueToast "android" trick.
	SpoofUsed bool
}

// ProtectedBypass demonstrates §IV-C: every helper-guarded interface is
// bounded through its helper but unbounded through the raw binder; the
// per-process-guarded ones hold except enqueueToast under the package
// spoof. Each protected interface is probed on its own freshly booted
// device (seed 71), so the rows are identical for any worker count
// (0 = one per CPU, 1 = sequential).
func ProtectedBypass(ctx context.Context, workers int) ([]BypassRow, error) {
	type probe struct {
		idx int
		row catalog.Interface
	}
	var probes []probe
	for i, row := range catalog.Interfaces() {
		if row.Protection != catalog.Unprotected {
			probes = append(probes, probe{idx: i, row: row})
		}
	}
	return parallel.Map(ctx, probes, workers, func(_ context.Context, _ int, p probe) (BypassRow, error) {
		br, err := bypassOnce(p.idx, p.row)
		if err != nil {
			return BypassRow{}, fmt.Errorf("experiments: bypass %s: %w", p.row.FullName(), err)
		}
		return br, nil
	})
}

func bypassOnce(idx int, row catalog.Interface) (BypassRow, error) {
	dev, err := device.Boot(device.Config{Seed: 71})
	if err != nil {
		return BypassRow{}, err
	}
	app, err := dev.Apps().Install(fmt.Sprintf("com.bypass.app%02d", idx))
	if err != nil {
		return BypassRow{}, err
	}
	if row.Permission != "" {
		if err := dev.Permissions().Grant(app.Uid(), row.Permission); err != nil {
			return BypassRow{}, err
		}
	}
	client, err := dev.NewClient(app, row.Service)
	if err != nil {
		return BypassRow{}, err
	}
	br := BypassRow{Interface: row.FullName(), Protection: row.Protection}
	svc := dev.Service(row.Service)
	probe := 3 * row.GuardLimit

	switch row.Protection {
	case catalog.HelperGuard:
		helper := services.NewHelper(client, row)
		for j := 0; j < probe; j++ {
			if err := helper.Acquire(); err != nil {
				break
			}
		}
		br.HelperBounded = svc.EntryCount(row.Method) <= row.GuardLimit
		for j := 0; j < probe; j++ {
			if err := client.Register(row.Method); err != nil {
				return BypassRow{}, err
			}
		}
		br.DirectUnbounded = svc.EntryCount(row.Method) > row.GuardLimit
	case catalog.PerProcessGuard:
		pkg := app.Package()
		if row.Bypassable {
			pkg = "android"
			br.SpoofUsed = true
		}
		for j := 0; j < probe; j++ {
			if err := client.RegisterAs(row.Method, pkg, client.NewToken()); err != nil {
				if strings.Contains(err.Error(), "quota") {
					break
				}
				return BypassRow{}, err
			}
		}
		br.DirectUnbounded = svc.EntryCount(row.Method) > row.GuardLimit
		br.HelperBounded = !br.DirectUnbounded
	}
	app.ForceStop("bypass probe done")
	return br, nil
}
