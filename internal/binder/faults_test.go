package binder

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/simclock"
)

// newFaultedRig is newRig with a fault injector on the telemetry path.
func newFaultedRig(t *testing.T, fcfg faults.Config, seed int64) *rig {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := New(k, Config{Faults: faults.New(fcfg, seed)})
	server := k.Spawn(kernel.SpawnConfig{
		Name: kernel.SystemServerName, Uid: kernel.SystemUid,
		OomScoreAdj: kernel.SystemAdj, VM: art.Config{},
	})
	app := k.Spawn(kernel.SpawnConfig{Name: "com.evil.app", Uid: 10061})
	return &rig{clock: clock, k: k, d: d, sm: NewServiceManager(d), server: server, app: app}
}

func (r *rig) echoN(t *testing.T, svc *BinderRef, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		data := NewParcel()
		data.WriteInt32(int32(i))
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFaultDropsReduceLog(t *testing.T) {
	const n = 400
	r := newFaultedRig(t, faults.Config{DropRate: 0.5}, 21)
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)
	r.d.EnableIPCLogging()
	r.echoN(t, svc, n)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	recs := r.d.flushed
	s := r.d.LogStats()
	if s.Seq != n {
		t.Fatalf("Seq = %d, want %d", s.Seq, n)
	}
	if s.Logged+s.DroppedRate != s.Seq {
		t.Fatalf("counters don't reconcile: %+v", s)
	}
	if uint64(len(recs)) != s.Delivered() {
		t.Fatalf("read %d records, stats say %d delivered", len(recs), s.Delivered())
	}
	if len(recs) == 0 || len(recs) == n {
		t.Fatalf("drop rate 0.5 delivered %d of %d records", len(recs), n)
	}
	// Surviving records keep their original sequence numbers, so gaps
	// are visible to the reader.
	gap := false
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			gap = true
		}
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("sequence numbers not increasing: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	if !gap {
		t.Fatal("no sequence gaps despite drops")
	}
}

func TestFaultDropsAreDeterministic(t *testing.T) {
	run := func() []uint64 {
		r := newFaultedRig(t, faults.Config{DropRate: 0.3}, 77)
		r.registerEcho(t, "echo")
		svc, _ := r.sm.GetService("echo", r.app)
		r.d.EnableIPCLogging()
		r.echoN(t, svc, 200)
		r.d.FlushLog()
		recs := r.d.flushed
		seqs := make([]uint64, len(recs))
		for i, rec := range recs {
			seqs[i] = rec.Seq
		}
		return seqs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("surviving sequence diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRingOverflowEvictsOldest(t *testing.T) {
	const cap = 16
	const n = 50
	r := newFaultedRig(t, faults.Config{RingCapacity: cap}, 5)
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)
	r.d.EnableIPCLogging()
	r.echoN(t, svc, n)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	recs := r.d.flushed
	if len(recs) != cap {
		t.Fatalf("flushed %d records, ring capacity is %d", len(recs), cap)
	}
	// Oldest evicted, newest kept.
	if recs[0].Seq != n-cap+1 || recs[len(recs)-1].Seq != n {
		t.Fatalf("ring kept seqs %d..%d, want %d..%d", recs[0].Seq, recs[len(recs)-1].Seq, n-cap+1, n)
	}
	s := r.d.LogStats()
	if s.DroppedRing != n-cap {
		t.Fatalf("DroppedRing = %d, want %d", s.DroppedRing, n-cap)
	}
	if s.Delivered() != cap {
		t.Fatalf("Delivered = %d, want %d", s.Delivered(), cap)
	}
}

func TestInjectedReadErrorAndCounter(t *testing.T) {
	r := newFaultedRig(t, faults.Config{ReadFailEvery: 2}, 8)
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)
	r.d.EnableIPCLogging()
	r.echoN(t, svc, 3)
	r.d.FlushLog()

	var w LogColumns
	if _, err := r.d.AppendLogColumnsSince(kernel.SystemUid, r.server.Pid(), 0, &w); !errors.Is(err, faults.ErrInjectedRead) {
		t.Fatalf("first read error = %v, want ErrInjectedRead", err)
	}
	n, err := r.d.AppendLogColumnsSince(kernel.SystemUid, r.server.Pid(), 0, &w)
	if err != nil {
		t.Fatalf("retry read failed: %v", err)
	}
	if n != 3 || w.Len() != 3 {
		t.Fatalf("retry read got %d records (window %d), want 3", n, w.Len())
	}
	if s := r.d.LogStats(); s.ReadErrors != 1 {
		t.Fatalf("ReadErrors = %d, want 1", s.ReadErrors)
	}
}

func TestJitterPerturbsTimestampsWithinBound(t *testing.T) {
	const jitter = 2 * time.Millisecond
	clean := newRig(t, art.Config{})
	clean.registerEcho(t, "echo")
	cleanSvc, _ := clean.sm.GetService("echo", clean.app)
	clean.d.EnableIPCLogging()
	clean.echoN(t, cleanSvc, 100)
	clean.d.FlushLog()
	cleanRecs := clean.d.flushed

	r := newFaultedRig(t, faults.Config{MaxJitter: jitter}, 13)
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)
	r.d.EnableIPCLogging()
	r.echoN(t, svc, 100)
	r.d.FlushLog()
	recs := r.d.flushed

	if len(recs) != len(cleanRecs) {
		t.Fatalf("jitter changed record count: %d vs %d", len(recs), len(cleanRecs))
	}
	moved := false
	for i := range recs {
		d := recs[i].Time - cleanRecs[i].Time
		if d < -jitter || d > jitter {
			t.Fatalf("record %d jittered by %v, bound %v", i, d, jitter)
		}
		if d != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("jitter never moved a timestamp")
	}
}

func TestStatsProcfsFile(t *testing.T) {
	r := newFaultedRig(t, faults.Config{DropRate: 0.5}, 21)
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)
	r.d.EnableIPCLogging()
	r.echoN(t, svc, 50)
	r.d.FlushLog()

	raw, err := r.k.ProcFS().Read(StatsPath, kernel.SystemUid)
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw)
	for _, field := range []string{"seq 50", "logged ", "dropped_rate ", "dropped_ring 0", "read_errors 0"} {
		if !strings.Contains(got, field) {
			t.Fatalf("stats file %q missing %q", got, field)
		}
	}
	// Apps cannot read telemetry health either.
	if _, err := r.k.ProcFS().Read(StatsPath, r.app.Uid()); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Fatalf("app stats read error = %v, want permission denied", err)
	}
}

func TestZeroFaultConfigMatchesUnfaulted(t *testing.T) {
	run := func(r *rig) []IPCRecord {
		r.registerEcho(t, "echo")
		svc, _ := r.sm.GetService("echo", r.app)
		r.d.EnableIPCLogging()
		r.echoN(t, svc, 100)
		r.d.FlushLog()
		return r.d.flushed
	}
	clean := run(newRig(t, art.Config{}))
	zeroed := run(newFaultedRig(t, faults.Config{}, 99))
	if len(clean) != len(zeroed) {
		t.Fatalf("record counts differ: %d vs %d", len(clean), len(zeroed))
	}
	for i := range clean {
		if clean[i] != zeroed[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, clean[i], zeroed[i])
		}
	}
}

func TestAttributeRetainedRefs(t *testing.T) {
	var retained []*BinderRef
	r := newRig(t, art.Config{})
	r.registerRetainer(t, "vuln", &retained)
	svc, _ := r.sm.GetService("vuln", r.app)

	const n = 12
	for i := 0; i < n; i++ {
		data := NewParcel()
		data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	attr := r.d.AttributeRetainedRefs(r.server.Pid())
	if attr[r.app.Uid()] != n {
		t.Fatalf("attribution[%d] = %d, want %d", r.app.Uid(), attr[r.app.Uid()], n)
	}
	// Releasing the refs drains the attribution.
	for _, ref := range retained {
		ref.Release()
	}
	attr = r.d.AttributeRetainedRefs(r.server.Pid())
	if attr[r.app.Uid()] != 0 {
		t.Fatalf("attribution after release = %d, want 0", attr[r.app.Uid()])
	}
	// Unknown pid yields nothing rather than panicking.
	if got := r.d.AttributeRetainedRefs(99999); len(got) != 0 {
		t.Fatalf("attribution for unknown pid = %v", got)
	}
}
