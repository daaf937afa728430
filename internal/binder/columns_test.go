package binder

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
)

// scanWindow is the oracle for AppendLogColumnsSince: a linear scan of
// the flushed store for victim's records past afterSeq, sharing nothing
// with the per-victim index and binary search the driver reads through.
func scanWindow(d *Driver, victim kernel.Pid, afterSeq uint64) []IPCRecord {
	var out []IPCRecord
	for _, r := range d.flushed {
		if r.ToPid == victim && r.Seq > afterSeq {
			out = append(out, r)
		}
	}
	return out
}

// rowsOf materializes a columnar window as records, for comparison with
// the oracle.
func rowsOf(w *LogColumns) []IPCRecord {
	var out []IPCRecord
	for i := 0; i < w.Len(); i++ {
		out = append(out, IPCRecord{
			Seq: w.Seq[i], Time: w.Time[i],
			FromPid: w.FromPid[i], FromUid: w.FromUid[i], ToPid: w.ToPid[i],
			Handle: w.Handle[i], Code: w.Code[i], Size: w.Size[i],
		})
	}
	return out
}

// TestLogColumnsRoundTrip pins the SoA view as a lossless encoding:
// appending records and reading the columns back yields the originals,
// Clone is a deep copy, and Reset retains capacity while emptying every
// column.
func TestLogColumnsRoundTrip(t *testing.T) {
	r := newFaultRig(t, faults.Config{}, 1)
	r.flood(t, 50)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	recs := r.d.flushed
	var w LogColumns
	for _, rec := range recs {
		w.Append(rec)
	}
	if w.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(recs))
	}
	if got := rowsOf(&w); !reflect.DeepEqual(got, recs) {
		t.Fatalf("columns diverged from the appended records")
	}
	c := w.Clone()
	if got := rowsOf(&c); !reflect.DeepEqual(got, recs) {
		t.Fatalf("Clone diverged from the original window")
	}
	c.Time[0]++
	c.FromUid[0]++
	if w.Time[0] != recs[0].Time || w.FromUid[0] != recs[0].FromUid {
		t.Fatal("Clone shares column storage with the original")
	}
	before := cap(w.Seq)
	w.Reset()
	if w.Len() != 0 || cap(w.Seq) != before {
		t.Fatalf("Reset: len=%d cap=%d, want len=0 cap=%d", w.Len(), cap(w.Seq), before)
	}
}

// TestLogColumnsFilter checks in-place compaction keeps exactly the
// selected rows, in order, across every column.
func TestLogColumnsFilter(t *testing.T) {
	r := newFaultRig(t, faults.Config{}, 1)
	r.flood(t, 40)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	recs := r.d.flushed
	var w LogColumns
	for _, rec := range recs {
		w.Append(rec)
	}
	w.Filter(func(i int) bool { return w.Seq[i]%3 == 0 })
	var want []IPCRecord
	for _, rec := range recs {
		if rec.Seq%3 == 0 {
			want = append(want, rec)
		}
	}
	if got := rowsOf(&w); !reflect.DeepEqual(got, want) {
		t.Fatalf("Filter kept %d rows, want %d matching rows in order", w.Len(), len(want))
	}
}

// TestLogColumnsRefillCapacity pins Grow's sizing on a reused window: a
// refill from empty is sized to exactly its rows, so refills of n, n+1
// and n rows leave every column at capacity n+1 (doubling would leave
// 2n), while rows appended onto existing ones still double it.
func TestLogColumnsRefillCapacity(t *testing.T) {
	const n = 37
	var w LogColumns
	fill := func(rows int) {
		w.Reset()
		w.Grow(rows)
		for i := 0; i < rows; i++ {
			w.Append(IPCRecord{Seq: uint64(i + 1)})
		}
	}
	caps := func() []int {
		return []int{cap(w.Seq), cap(w.Time), cap(w.FromPid), cap(w.FromUid),
			cap(w.ToPid), cap(w.Handle), cap(w.Code), cap(w.Size)}
	}
	for _, rows := range []int{n, n + 1, n} {
		fill(rows)
	}
	for col, c := range caps() {
		if c != n+1 {
			t.Fatalf("column %d: capacity %d after refills of %d, %d and %d rows, want %d", col, c, n, n+1, n, n+1)
		}
	}
	w.Grow(2) // one row past the spare slot
	for col, c := range caps() {
		if c != 2*(n+1) {
			t.Fatalf("column %d: capacity %d after growing %d rows by two, want %d", col, c, n, 2*(n+1))
		}
	}
}

// TestAppendLogColumnsSinceMatchesRows is the equivalence contract for
// the defender's columnar read: for any afterSeq cut, the columnar view
// holds exactly the rows a scan of the flushed store selects.
func TestAppendLogColumnsSinceMatchesRows(t *testing.T) {
	r := newFaultRig(t, faults.Config{}, 1)
	r.flood(t, 120)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	victim := r.server.Pid()
	all := scanWindow(r.d, victim, 0)
	if len(all) == 0 {
		t.Fatal("no records for victim")
	}
	cuts := []uint64{0, all[0].Seq, all[len(all)/2].Seq, all[len(all)-1].Seq}
	for _, cut := range cuts {
		want := scanWindow(r.d, victim, cut)
		var w LogColumns
		n, err := r.d.AppendLogColumnsSince(kernel.SystemUid, victim, cut, &w)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) || w.Len() != len(want) {
			t.Fatalf("cut %d: appended %d rows (len %d), want %d", cut, n, w.Len(), len(want))
		}
		if !reflect.DeepEqual(rowsOf(&w), want) {
			t.Fatalf("cut %d: columnar window diverged from the flushed-store scan", cut)
		}
	}
	// The second append lands behind the first: the columnar read is an
	// append, not a replace, so a poll loop can accumulate one window
	// across retries of disjoint cuts.
	var w LogColumns
	mid := all[len(all)/2].Seq
	if _, err := r.d.AppendLogColumnsSince(kernel.SystemUid, victim, mid, &w); err != nil {
		t.Fatal(err)
	}
	head := w.Len()
	if _, err := r.d.AppendLogColumnsSince(kernel.SystemUid, victim, mid, &w); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2*head {
		t.Fatalf("second append: len = %d, want %d", w.Len(), 2*head)
	}
}

// TestAppendLogColumnsSinceWindows exercises the per-victim seq index
// against the flushed-store scan: windows bounded below by afterSeq,
// across multiple flushes, against a second victim whose records must
// never leak into the window, through the ACL, past the end, and across
// a truncate followed by a fresh flush.
func TestAppendLogColumnsSinceWindows(t *testing.T) {
	r := newFaultRig(t, faults.Config{}, 1)
	// Second victim on its own process.
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
		t.Fatal(err)
	}
	osvc, err := sm.GetService("othersink", r.app)
	if err != nil {
		t.Fatal(err)
	}

	interleave := func(n int) {
		for i := 0; i < n; i++ {
			r.flood(t, 1)
			data := ObtainParcel()
			data.WriteString("com.evil.app")
			oerr := osvc.Binder().Transact(1, data, nil)
			data.Recycle()
			if oerr != nil {
				t.Fatal(oerr)
			}
		}
	}
	victim := r.server.Pid()
	// read returns victim's window past afterSeq after checking it
	// against the scan oracle.
	read := func(afterSeq uint64, want int) []IPCRecord {
		t.Helper()
		var w LogColumns
		n, err := r.d.AppendLogColumnsSince(kernel.SystemUid, victim, afterSeq, &w)
		if err != nil {
			t.Fatal(err)
		}
		got := rowsOf(&w)
		if n != want || len(got) != want {
			t.Fatalf("window past seq %d: appended %d rows (len %d), want %d", afterSeq, n, len(got), want)
		}
		if oracle := scanWindow(r.d, victim, afterSeq); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("window past seq %d diverged from the flushed-store scan", afterSeq)
		}
		return got
	}

	interleave(10)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if n := len(scanWindow(r.d, other.Pid(), 0)); n != 10 {
		t.Fatalf("second victim has %d flushed records, want 10", n)
	}
	full := read(0, 10)
	for i, rec := range full {
		if rec.ToPid != victim {
			t.Fatalf("record %d targets pid %d, want victim %d", i, rec.ToPid, victim)
		}
		if i > 0 && rec.Seq <= full[i-1].Seq {
			t.Fatalf("window not seq-ascending at %d", i)
		}
	}

	// A window bounded by a mid-stream seq returns exactly the newer
	// victim records.
	mid := full[4].Seq
	if tail := read(mid, 5); tail[0].Seq <= mid {
		t.Fatalf("tail starts at seq %d, want > %d", tail[0].Seq, mid)
	}

	// After another flush the index extends; afterSeq = last seen seq
	// yields only the new batch.
	interleave(6)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	fresh := read(full[len(full)-1].Seq, 6)

	// Past the end: nothing appended.
	read(fresh[len(fresh)-1].Seq, 0)

	// The ACL is the procfs's: app uids are denied.
	var denied LogColumns
	if _, err := r.d.AppendLogColumnsSince(r.app.Uid(), victim, 0, &denied); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Fatalf("app read error = %v, want permission denied", err)
	}

	// Truncation clears the windows but keeps the index consistent for
	// later flushes.
	if err := r.d.TruncateLog(); err != nil {
		t.Fatal(err)
	}
	read(0, 0)
	interleave(3)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	read(0, 3)
}

// TestAppendLogColumnsSinceGauntlet pins the read-side gauntlet: app
// uids are denied by the procfs ACL and injected read faults surface
// before any data is copied.
func TestAppendLogColumnsSinceGauntlet(t *testing.T) {
	r := newFaultRig(t, faults.Config{}, 1)
	r.flood(t, 10)
	if _, err := r.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	var w LogColumns
	if _, err := r.d.AppendLogColumnsSince(r.app.Uid(), r.server.Pid(), 0, &w); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Fatalf("app read error = %v, want ErrPermissionDenied", err)
	}
	if w.Len() != 0 {
		t.Fatalf("denied read leaked %d rows into the window", w.Len())
	}

	faulty := newFaultRig(t, faults.Config{ReadFailEvery: 1}, 99)
	faulty.flood(t, 10)
	if _, err := faulty.d.AppendLogColumnsSince(kernel.SystemUid, faulty.server.Pid(), 0, &w); !errors.Is(err, faults.ErrInjectedRead) {
		t.Fatalf("faulted read error = %v, want ErrInjectedRead", err)
	}
	if w.Len() != 0 {
		t.Fatalf("faulted read leaked %d rows into the window", w.Len())
	}
}
