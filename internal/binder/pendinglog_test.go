package binder

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
)

// shiftModel is the copy-shift eviction the driver's pending log used
// before it moved onto a trace.Ring: bounded eviction by copying the
// slice down one slot. The driver's log must be observationally
// identical to it — same survivors, same order, same eviction count —
// for every transact/flush interleaving.
type shiftModel struct {
	capacity int
	buf      []IPCRecord
	evicted  uint64
}

func (m *shiftModel) push(rec IPCRecord) {
	if m.capacity > 0 && len(m.buf) == m.capacity {
		copy(m.buf, m.buf[1:])
		m.buf[len(m.buf)-1] = rec
		m.evicted++
		return
	}
	m.buf = append(m.buf, rec)
}

// flushNew flushes the rig's pending log and returns the records that
// flush appended to the procfs store.
func flushNew(t *testing.T, r *faultRig) []IPCRecord {
	t.Helper()
	base := len(r.d.flushed)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	return r.d.flushed[base:]
}

// TestLogRingMatchesShiftModel floods a ring-bounded driver and an
// unbounded one with the same transactions, flushing both between runs.
// Fed the unbounded driver's records, the copy-shift model must predict
// exactly what each flush of the bounded driver delivers, and its
// eviction count must be the driver's DroppedRing.
func TestLogRingMatchesShiftModel(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		pushes   []int // run lengths; a flush happens after each run
	}{
		{"unbounded", 0, []int{5, 0, 17, 3}},
		{"never-fills", 8, []int{5, 7, 3}},
		{"exactly-full", 4, []int{4, 4}},
		{"single-wrap", 4, []int{6, 2}},
		{"multi-wrap", 4, []int{13, 9, 21}},
		{"capacity-one", 1, []int{5, 1, 3}},
		{"long-flood", 16, []int{1000}},
		{"refill-after-drain", 3, []int{7, 7, 7, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			free := newFaultRig(t, faults.Config{}, 1)
			bounded := newFaultRig(t, faults.Config{RingCapacity: tc.capacity}, 1)
			model := shiftModel{capacity: tc.capacity}
			for run, n := range tc.pushes {
				free.flood(t, n)
				bounded.flood(t, n)
				for _, rec := range flushNew(t, free) {
					model.push(rec)
				}
				if got := bounded.d.PendingLogLen(); got != len(model.buf) {
					t.Fatalf("run %d: pending = %d, model %d", run, got, len(model.buf))
				}
				got := flushNew(t, bounded)
				if len(got) != len(model.buf) {
					t.Fatalf("run %d: flushed %d records, model %d", run, len(got), len(model.buf))
				}
				for i := range got {
					if got[i] != model.buf[i] {
						t.Fatalf("run %d record %d: got seq %d, model seq %d", run, i, got[i].Seq, model.buf[i].Seq)
					}
				}
				model.buf = model.buf[:0]
				if s := bounded.d.LogStats(); s.DroppedRing != model.evicted {
					t.Fatalf("run %d: DroppedRing = %d, model %d", run, s.DroppedRing, model.evicted)
				}
			}
		})
	}
}

// TestLogRingDrainAppends pins that a flush appends the pending records,
// oldest first, after what earlier flushes delivered.
func TestLogRingDrainAppends(t *testing.T) {
	r := newFaultRig(t, faults.Config{RingCapacity: 4}, 1)
	r.flood(t, 2)
	flushNew(t, r)
	r.flood(t, 6) // seqs 3..8; the ring keeps 5..8
	flushNew(t, r)
	wantSeqs := []uint64{1, 2, 5, 6, 7, 8}
	if len(r.d.flushed) != len(wantSeqs) {
		t.Fatalf("flushed %d records, want %d", len(r.d.flushed), len(wantSeqs))
	}
	for i, w := range wantSeqs {
		if r.d.flushed[i].Seq != w {
			t.Fatalf("flushed[%d].Seq = %d, want %d", i, r.d.flushed[i].Seq, w)
		}
	}
	if r.d.PendingLogLen() != 0 {
		t.Fatalf("pending log not empty after flush: %d", r.d.PendingLogLen())
	}
}

// TestLogRingDiscard pins the failed-flush path: when the procfs log is
// gone the pending records are discarded, the eviction count survives,
// and the log keeps accepting records.
func TestLogRingDiscard(t *testing.T) {
	r := newFaultRig(t, faults.Config{RingCapacity: 4}, 1)
	r.flood(t, 10)
	if err := r.k.ProcFS().Remove(LogPath, kernel.RootUid); err != nil {
		t.Fatal(err)
	}
	if _, err := r.d.FlushLog(); err == nil {
		t.Fatal("FlushLog succeeded without a log file")
	}
	if r.d.PendingLogLen() != 0 {
		t.Fatalf("pending = %d after a failed flush, want 0", r.d.PendingLogLen())
	}
	if got := r.d.LogStats().DroppedRing; got != 6 {
		t.Fatalf("DroppedRing = %d after discard, want 6", got)
	}
	r.flood(t, 1)
	if r.d.PendingLogLen() != 1 {
		t.Fatalf("pending = %d after one more transaction, want 1", r.d.PendingLogLen())
	}
}

// TestLogRingStorageReuse pins that the pending log keeps its storage
// across flushes and across NewReusing: the fleet slot recycle path
// would otherwise regrow a defended trial's ~6,000-record log every
// trial.
func TestLogRingStorageReuse(t *testing.T) {
	r := newFaultRig(t, faults.Config{}, 1)
	r.flood(t, 100)
	flushNew(t, r)
	d := NewReusing(r.d, r.k, Config{})
	// The first refill is the one that would regrow, so it is measured
	// directly rather than with AllocsPerRun, which warms up first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := uint64(1); seq <= 100; seq++ {
		d.pending.Push(IPCRecord{Seq: seq})
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("refilling a recycled driver's pending log allocated %d times", n)
	}
}
