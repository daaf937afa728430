package binder

import (
	"slices"
	"sort"
	"time"

	"repro/internal/kernel"
)

// LogColumns is a columnar (struct-of-arrays) view over a window of the
// flushed IPC log. The defender's streaming correlator groups and scans
// one field at a time — uids to segment by app, times for the delay
// sweep — and a row-of-structs window makes every such scan stride over
// the seven fields it does not need. Keeping each field in its own
// parallel slice lets those scans run over dense, cache-friendly memory,
// and lets the driver fill a window straight from its flushed store
// without materializing intermediate IPCRecord rows.
//
// All column slices always have equal length; Append, Filter and Reset
// are the only mutators that change it. A LogColumns is plain data:
// concurrent readers may share one (the Fig. 9 Δ sweep scores one
// window from a worker pool), but each writer needs its own.
type LogColumns struct {
	Seq     []uint64
	Time    []time.Duration
	FromPid []kernel.Pid
	FromUid []kernel.Uid
	ToPid   []kernel.Pid
	Handle  []Handle
	Code    []TxCode
	Size    []int
}

// Len returns the number of rows in the window.
func (w *LogColumns) Len() int { return len(w.Seq) }

// Reset truncates every column to zero length, retaining capacity so a
// poll loop can refill the same window allocation-free in steady state.
func (w *LogColumns) Reset() {
	w.Seq = w.Seq[:0]
	w.Time = w.Time[:0]
	w.FromPid = w.FromPid[:0]
	w.FromUid = w.FromUid[:0]
	w.ToPid = w.ToPid[:0]
	w.Handle = w.Handle[:0]
	w.Code = w.Code[:0]
	w.Size = w.Size[:0]
}

// Grow pre-extends every column's capacity for n more rows. Appends onto
// existing rows double the capacity, amortizing a window built up in
// pieces; a refill from empty is sized to exactly its n rows, so a
// window reused across fills never holds more than its largest fill.
func (w *LogColumns) Grow(n int) {
	if n <= 0 || cap(w.Seq)-len(w.Seq) >= n {
		return
	}
	c := len(w.Seq) + n
	if len(w.Seq) > 0 && 2*cap(w.Seq) > c {
		c = 2 * cap(w.Seq)
	}
	w.Seq = append(make([]uint64, 0, c), w.Seq...)
	w.Time = append(make([]time.Duration, 0, c), w.Time...)
	w.FromPid = append(make([]kernel.Pid, 0, c), w.FromPid...)
	w.FromUid = append(make([]kernel.Uid, 0, c), w.FromUid...)
	w.ToPid = append(make([]kernel.Pid, 0, c), w.ToPid...)
	w.Handle = append(make([]Handle, 0, c), w.Handle...)
	w.Code = append(make([]TxCode, 0, c), w.Code...)
	w.Size = append(make([]int, 0, c), w.Size...)
}

// Append adds one record's fields as a new row.
func (w *LogColumns) Append(r IPCRecord) {
	w.Seq = append(w.Seq, r.Seq)
	w.Time = append(w.Time, r.Time)
	w.FromPid = append(w.FromPid, r.FromPid)
	w.FromUid = append(w.FromUid, r.FromUid)
	w.ToPid = append(w.ToPid, r.ToPid)
	w.Handle = append(w.Handle, r.Handle)
	w.Code = append(w.Code, r.Code)
	w.Size = append(w.Size, r.Size)
}

// Clone returns a deep copy of the window, for callers that keep a
// window past the next Reset of a reused one.
func (w *LogColumns) Clone() LogColumns {
	return LogColumns{
		Seq:     slices.Clone(w.Seq),
		Time:    slices.Clone(w.Time),
		FromPid: slices.Clone(w.FromPid),
		FromUid: slices.Clone(w.FromUid),
		ToPid:   slices.Clone(w.ToPid),
		Handle:  slices.Clone(w.Handle),
		Code:    slices.Clone(w.Code),
		Size:    slices.Clone(w.Size),
	}
}

// Filter compacts the window in place, keeping only rows for which keep
// returns true. Row order is preserved.
func (w *LogColumns) Filter(keep func(i int) bool) {
	out := 0
	for i := 0; i < w.Len(); i++ {
		if !keep(i) {
			continue
		}
		if out != i {
			w.Seq[out] = w.Seq[i]
			w.Time[out] = w.Time[i]
			w.FromPid[out] = w.FromPid[i]
			w.FromUid[out] = w.FromUid[i]
			w.ToPid[out] = w.ToPid[i]
			w.Handle[out] = w.Handle[i]
			w.Code[out] = w.Code[i]
			w.Size[out] = w.Size[i]
		}
		out++
	}
	w.Seq = w.Seq[:out]
	w.Time = w.Time[:out]
	w.FromPid = w.FromPid[:out]
	w.FromUid = w.FromUid[:out]
	w.ToPid = w.ToPid[:out]
	w.Handle = w.Handle[:out]
	w.Code = w.Code[:out]
	w.Size = w.Size[:out]
}

// AppendLogColumnsSince appends the flushed records targeting victim
// with sequence numbers beyond afterSeq, oldest first, onto w's columns,
// straight from the flushed store with no intermediate row slice. It
// returns the number of rows appended. It is the driver's only struct
// reader of the log, so it carries the procfs semantics: injected read
// faults surface as faults.ErrInjectedRead and app uids are denied
// (malicious apps can neither observe nor spoof the evidence stream),
// both before any data is copied. The per-victim position index plus a
// binary search on the monotone sequence numbers makes the read
// O(log n + window) rather than a scan over every flushed record.
func (d *Driver) AppendLogColumnsSince(uid kernel.Uid, victim kernel.Pid, afterSeq uint64, w *LogColumns) (int, error) {
	if err := d.logReadable(uid); err != nil {
		return 0, err
	}
	idx := d.byPid[victim]
	// Positions are appended in flush order and seqs are monotone, so the
	// index is seq-sorted.
	lo := sort.Search(len(idx), func(i int) bool {
		return d.flushed[idx[i]].Seq > afterSeq
	})
	if lo == len(idx) {
		return 0, nil
	}
	w.Grow(len(idx) - lo)
	for _, pos := range idx[lo:] {
		w.Append(d.flushed[pos])
	}
	return len(idx) - lo, nil
}
