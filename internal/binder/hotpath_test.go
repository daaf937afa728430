package binder

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/simclock"
)

// faultRig is a logged two-process rig with an optional fault injector,
// used by the hot-path regression tests.
type faultRig struct {
	clock  *simclock.Clock
	k      *kernel.Kernel
	d      *Driver
	server *kernel.Process
	app    *kernel.Process
	svc    *BinderRef
}

func newFaultRig(t *testing.T, fcfg faults.Config, seed int64) *faultRig {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	cfg := Config{}
	if fcfg.Enabled() {
		cfg.Faults = faults.New(fcfg, seed)
	}
	d := New(k, cfg)
	server := k.Spawn(kernel.SpawnConfig{
		Name: kernel.SystemServerName, Uid: kernel.SystemUid,
		OomScoreAdj: kernel.SystemAdj,
	})
	app := k.Spawn(kernel.SpawnConfig{Name: "com.evil.app", Uid: 10061})
	sm := NewServiceManager(d)
	stub := d.NewLocalBinder(server, "SinkService", TransactorFunc(func(c *Call) error {
		if _, err := c.Data.ReadString(); err != nil {
			return err
		}
		_, err := c.Data.ReadStrongBinder()
		return err
	}))
	if err := sm.AddService("sink", stub); err != nil {
		t.Fatal(err)
	}
	svc, err := sm.GetService("sink", app)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableIPCLogging(); err != nil {
		t.Fatal(err)
	}
	return &faultRig{clock: clock, k: k, d: d, server: server, app: app, svc: svc}
}

func (r *faultRig) flood(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		data := ObtainParcel()
		data.WriteString("com.evil.app")
		data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		err := r.svc.Binder().Transact(1, data, nil)
		data.Recycle()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultOrderPinned pins the log-write fault order: timestamp jitter is
// a pure function of (seed, seq) evaluated before the ring decides whether
// the append evicts, so ring eviction can never perturb the timestamps of
// surviving records. A bounded-ring run's survivors must therefore carry
// exactly the timestamps the unbounded run assigned to the same sequence
// numbers.
func TestFaultOrderPinned(t *testing.T) {
	const n = 500
	const seed = 7
	jitter := faults.Config{MaxJitter: 300 * time.Microsecond}
	ringed := faults.Config{MaxJitter: 300 * time.Microsecond, RingCapacity: 64}

	free := newFaultRig(t, jitter, seed)
	free.flood(t, n)
	if _, err := free.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	freeRecs := free.d.flushed
	bySeq := make(map[uint64]IPCRecord, len(freeRecs))
	for _, r := range freeRecs {
		bySeq[r.Seq] = r
	}

	bounded := newFaultRig(t, ringed, seed)
	bounded.flood(t, n)
	if _, err := bounded.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	survivors := bounded.d.flushed
	if len(survivors) != 64 {
		t.Fatalf("survivors = %d, want ring capacity 64", len(survivors))
	}
	for _, s := range survivors {
		ref, ok := bySeq[s.Seq]
		if !ok {
			t.Fatalf("survivor seq %d missing from unbounded run", s.Seq)
		}
		if s != ref {
			t.Fatalf("survivor seq %d diverged from unbounded run:\n ring: %+v\n free: %+v", s.Seq, s, ref)
		}
	}
	// Survivors are the n newest records, oldest first.
	for i, s := range survivors {
		if want := uint64(n - 64 + 1 + i); s.Seq != want {
			t.Fatalf("survivor[%d].Seq = %d, want %d", i, s.Seq, want)
		}
	}

	stats := bounded.d.LogStats()
	if stats.Seq != n || stats.Logged != n {
		t.Fatalf("stats = %+v, want Seq = Logged = %d", stats, n)
	}
	if stats.DroppedRing != n-64 {
		t.Fatalf("DroppedRing = %d, want %d", stats.DroppedRing, n-64)
	}
	if stats.Delivered() != 64 {
		t.Fatalf("Delivered = %d, want 64", stats.Delivered())
	}
}

// TestCounterReconciliation pins Seq = Logged + DroppedRate and
// Delivered = Logged - DroppedRing when rate drops and ring eviction act
// together.
func TestCounterReconciliation(t *testing.T) {
	const n = 400
	r := newFaultRig(t, faults.Config{DropRate: 0.25, RingCapacity: 32}, 3)
	r.flood(t, n)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	stats := r.d.LogStats()
	if stats.Seq != n {
		t.Fatalf("Seq = %d, want %d", stats.Seq, n)
	}
	if stats.Seq != stats.Logged+stats.DroppedRate {
		t.Fatalf("Seq %d != Logged %d + DroppedRate %d", stats.Seq, stats.Logged, stats.DroppedRate)
	}
	if stats.DroppedRate == 0 {
		t.Fatal("expected some rate-dropped records at 25%")
	}
	if uint64(len(r.d.flushed)) != stats.Delivered() {
		t.Fatalf("delivered records = %d, stats.Delivered() = %d", len(r.d.flushed), stats.Delivered())
	}
	if stats.Delivered() != stats.Logged-stats.DroppedRing {
		t.Fatalf("Delivered %d != Logged %d - DroppedRing %d", stats.Delivered(), stats.Logged, stats.DroppedRing)
	}
}

// TestProcfsTextRenderMatchesStructs pins the compat contract of the
// provider-backed /proc file: rendering the flushed records to text and
// parsing the lines back must reproduce the struct stream byte for byte —
// including under timestamp jitter, where the at-append µs truncation is
// what keeps the two views identical.
func TestProcfsTextRenderMatchesStructs(t *testing.T) {
	r := newFaultRig(t, faults.Config{MaxJitter: 700 * time.Microsecond, ClockSkew: time.Millisecond}, 11)
	r.flood(t, 50)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	structs := r.d.flushed
	raw, err := r.k.ProcFS().Read(LogPath, kernel.SystemUid)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != len(structs) {
		t.Fatalf("rendered %d lines, %d struct records", len(lines), len(structs))
	}
	for i, line := range lines {
		parsed, err := ParseIPCRecord(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if parsed != structs[i] {
			t.Fatalf("line %d round-trip mismatch:\n text: %+v\nstruct: %+v", i, parsed, structs[i])
		}
	}
	// The provider owns the file contents: nobody can write or append,
	// even root.
	if err := r.k.ProcFS().Write(LogPath, kernel.RootUid, []byte("spoof")); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Fatalf("Write on provider file = %v, want permission denied", err)
	}
	if err := r.k.ProcFS().Append(LogPath, kernel.RootUid, []byte("spoof")); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Fatalf("Append on provider file = %v, want permission denied", err)
	}
}

// TestPooledParcelHygiene checks that a recycled parcel comes back empty
// (no leaked items, cursor, reader or read refs), and that the pool is
// safe under concurrent obtain/write/recycle — the path `make race`
// exercises.
func TestPooledParcelHygiene(t *testing.T) {
	p := ObtainParcel()
	p.WriteString("secret")
	p.WriteInt32(42)
	p.Recycle()
	q := ObtainParcel()
	if q.Len() != 0 {
		t.Fatalf("pooled parcel has %d leftover items", q.Len())
	}
	if _, err := q.ReadInt32(); !errors.Is(err, ErrParcelExhausted) {
		t.Fatalf("read from fresh pooled parcel = %v, want exhausted", err)
	}
	q.Recycle()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := ObtainParcel()
				if p.Len() != 0 {
					panic("dirty parcel from pool")
				}
				p.WriteString("payload")
				p.WriteInt64(int64(i))
				p.Recycle()
			}
		}()
	}
	wg.Wait()
}

// TestRecycledCallFramesDoNotLeak pins the Call pooling contract: state
// from one transaction must never be observable in the next.
func TestRecycledCallFramesDoNotLeak(t *testing.T) {
	r := newFaultRig(t, faults.Config{}, 1)
	var seen []kernel.Uid
	stub := r.d.NewLocalBinder(r.server, "UidEcho", TransactorFunc(func(c *Call) error {
		seen = append(seen, c.SenderUid)
		if c.Data.Len() != 1 {
			t.Fatalf("call data has %d items, want 1", c.Data.Len())
		}
		return nil
	}))
	sm := NewServiceManager(r.d)
	if err := sm.AddService("uidecho", stub); err != nil {
		t.Fatal(err)
	}
	svc, err := sm.GetService("uidecho", r.app)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		data := ObtainParcel()
		data.WriteInt32(int32(i))
		err := svc.Binder().Transact(1, data, nil)
		data.Recycle()
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 20 {
		t.Fatalf("handler ran %d times, want 20", len(seen))
	}
	for i, uid := range seen {
		if uid != r.app.Uid() {
			t.Fatalf("call %d saw uid %d, want %d", i, uid, r.app.Uid())
		}
	}
}
