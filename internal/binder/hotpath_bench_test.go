package binder

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchRig builds a minimal logged two-process device for hot-path
// benchmarks: a sink service on a system process that reads (but does not
// retain) the flooded binder tokens, so the table drains through GC and
// the flood can run for any b.N.
type benchRig struct {
	clock  *simclock.Clock
	k      *kernel.Kernel
	d      *Driver
	server *kernel.Process
	app    *kernel.Process
	svc    *BinderRef
}

func newBenchRig(b *testing.B, fcfg faults.Config, seed int64, reg *telemetry.Registry) *benchRig {
	b.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	cfg := Config{Metrics: reg}
	if fcfg.Enabled() {
		cfg.Faults = faults.New(fcfg, seed)
	}
	d := New(k, cfg)
	server := k.Spawn(kernel.SpawnConfig{
		Name: kernel.SystemServerName, Uid: kernel.SystemUid,
		OomScoreAdj: kernel.SystemAdj,
	})
	app := k.Spawn(kernel.SpawnConfig{Name: "com.bench.app", Uid: 10061})
	sm := NewServiceManager(d)
	stub := d.NewLocalBinder(server, "SinkService", TransactorFunc(func(c *Call) error {
		if _, err := c.Data.ReadString(); err != nil {
			return err
		}
		// Read but never retain: the innocent pattern, which keeps the
		// victim table draining via GC so the flood is sustainable.
		_, err := c.Data.ReadStrongBinder()
		return err
	}))
	if err := sm.AddService("sink", stub); err != nil {
		b.Fatal(err)
	}
	svc, err := sm.GetService("sink", app)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.EnableIPCLogging(); err != nil {
		b.Fatal(err)
	}
	return &benchRig{clock: clock, k: k, d: d, server: server, app: app, svc: svc}
}

// floodOnce issues one attack-shaped logged transaction: pooled parcels,
// a fresh binder token, transact, log append — the same path a client's
// Register call takes.
func (r *benchRig) floodOnce(b *testing.B) {
	data, reply := ObtainParcel(), ObtainParcel()
	data.WriteString("com.bench.app")
	data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
	err := r.svc.Binder().Transact(1, data, reply)
	data.Recycle()
	reply.Recycle()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTransactLogged measures the per-call simulation hot path with
// IPC logging enabled: binder transact -> JGR bookkeeping -> log append.
// The unbounded case grows the pending buffer (drained off-timer); the
// ring-flood case holds a bounded kernel-style ring at capacity so every
// append evicts — the flood-scale eviction path.
func BenchmarkTransactLogged(b *testing.B) {
	b.Run("unbounded", func(b *testing.B) {
		r := newBenchRig(b, faults.Config{}, 1, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.floodOnce(b)
			if r.d.PendingLogLen() >= 1<<15 {
				b.StopTimer()
				if _, err := r.d.FlushLog(); err != nil {
					b.Fatal(err)
				}
				if err := r.d.TruncateLog(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	})
	b.Run("ring-flood", func(b *testing.B) {
		r := newBenchRig(b, faults.Config{RingCapacity: 4096}, 1, nil)
		// Pre-fill the ring so every timed append evicts.
		for i := 0; i < 4096; i++ {
			r.floodOnce(b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.floodOnce(b)
		}
	})
	// The traced variant attaches a flight recorder sampling every
	// transaction — the full span-mint + three-emit cost per call. The
	// untraced sub-benchmarks above run with rec == nil, which is how
	// make bench-smoke proves the tracing hook costs the off path
	// nothing beyond a branch (gate: unbounded within 5% of the
	// BENCH_hotpath.json baseline).
	b.Run("traced", func(b *testing.B) {
		r := newBenchRig(b, faults.Config{}, 1, nil)
		r.d.SetRecorder(trace.NewRecorder(0, 0, 1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.floodOnce(b)
			if r.d.PendingLogLen() >= 1<<15 {
				b.StopTimer()
				if _, err := r.d.FlushLog(); err != nil {
					b.Fatal(err)
				}
				if err := r.d.TruncateLog(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	})
}

// BenchmarkTelemetryOverhead compares the logged transact hot path with
// and without a metrics registry attached. The instrumented variant adds
// one histogram observation (plus the pull-gauge registrations, which
// cost nothing per call); the budget is ≤5% over bare — compare the two
// sub-benchmark ns/op by hand or with benchstat.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, reg *telemetry.Registry) {
		r := newBenchRig(b, faults.Config{RingCapacity: 4096}, 1, reg)
		for i := 0; i < 4096; i++ {
			r.floodOnce(b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.floodOnce(b)
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) { run(b, telemetry.NewRegistry()) })
}

// BenchmarkReadLogWindow measures the defender's evidence-window read: a
// flushed log populated by two interleaved victims, from which one
// victim's app-uid records are read into a reused columnar window —
// Reset, AppendLogColumnsSince and the app-uid Filter, as the poll loop
// does.
func BenchmarkReadLogWindow(b *testing.B) {
	r := newBenchRig(b, faults.Config{}, 1, nil)
	// A second victim service on its own process; its records must be
	// filtered out of the window.
	other := r.k.Spawn(kernel.SpawnConfig{
		Name: "com.android.phone", Uid: kernel.SystemUid,
		OomScoreAdj: kernel.PersistentProcAdj,
	})
	sm := NewServiceManager(r.d)
	stub := r.d.NewLocalBinder(other, "OtherSink", TransactorFunc(func(c *Call) error {
		_, err := c.Data.ReadString()
		return err
	}))
	if err := sm.AddService("othersink", stub); err != nil {
		b.Fatal(err)
	}
	osvc, err := sm.GetService("othersink", r.app)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	for i := 0; i < n; i++ {
		r.floodOnce(b)
		data := NewParcel()
		data.WriteString("com.bench.app")
		if err := osvc.Binder().Transact(1, data, nil); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := r.d.FlushLog(); err != nil {
		b.Fatal(err)
	}
	victim := r.server.Pid()
	var w LogColumns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if _, err := r.d.AppendLogColumnsSince(kernel.SystemUid, victim, 0, &w); err != nil {
			b.Fatal(err)
		}
		w.Filter(func(j int) bool { return kernel.IsAppUid(w.FromUid[j]) })
		if w.Len() != n {
			b.Fatalf("window = %d, want %d", w.Len(), n)
		}
	}
}
