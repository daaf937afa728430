package defense

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/binder"
)

// correlator runs Algorithm 1 (§V-A) over one evidence window in
// streaming, columnar form. The window arrives as a binder.LogColumns
// (struct-of-arrays); scoring sorts an index permutation to group rows
// by interface type, then resolves each type's best-supported delay
// bucket with a flat difference-array sweep. Every scratch buffer is
// retained between calls, so a correlator that has scored a window as
// large as the next one scores it with only the output-assembly
// allocations (the returned slice and its ByType maps, which escape to
// the caller).
//
// Correlators live in engagements borrowed from the package's store
// (see engagement): a poll-loop engagement and every ScoreWithDelta
// call score on storage that earlier engagements, on any defender and
// any device, grew and returned. A correlator is used by one goroutine
// at a time and is never copied by value, because its sorters point
// back at it. Nothing one score leaves behind reaches the next: the
// difference array is all zeros between calls and every other buffer
// is overwritten before it is read, so a borrowed and a zero-value
// correlator produce byte-for-byte identical output, which the
// differential fuzz and exhaustive small-domain tests pin against a
// naive per-bucket reference scorer.
type correlator struct {
	adds []time.Duration
	// w is the window being scored, valid only within one score call.
	w       *binder.LogColumns
	usePath bool
	// order is the permutation grouping window rows by (uid, handle,
	// code, path) with times ascending inside each group.
	order  []int32
	sorter orderSorter
	ranker rankSorter

	// Per-type scratch: deduplicated call times with multiplicities and,
	// per deduplicated call, the half-open span of overlapping adds.
	ctimes  []time.Duration
	cweight []int64
	clo     []int32
	chi     []int32
	// diff is the difference array over delay buckets (len domain+1).
	// Outside a sweep it is all zeros up to its capacity; each sweep
	// clears exactly the subrange it touched, so defenders with different
	// MaxDelay domains can share one array.
	diff []int64

	// scratch accumulates per-uid scores in uid order; the ranked copy
	// handed to the caller is the only per-round allocation.
	scratch []AppScore
}

// orderSorter sorts the row permutation by type then time.
type orderSorter struct{ c *correlator }

func (s *orderSorter) Len() int { return len(s.c.order) }
func (s *orderSorter) Swap(i, j int) {
	o := s.c.order
	o[i], o[j] = o[j], o[i]
}
func (s *orderSorter) Less(i, j int) bool {
	c, w := s.c, s.c.w
	a, b := c.order[i], c.order[j]
	if w.FromUid[a] != w.FromUid[b] {
		return w.FromUid[a] < w.FromUid[b]
	}
	if w.Handle[a] != w.Handle[b] {
		return w.Handle[a] < w.Handle[b]
	}
	if w.Code[a] != w.Code[b] {
		return w.Code[a] < w.Code[b]
	}
	if c.usePath && w.Size[a] != w.Size[b] {
		return w.Size[a] < w.Size[b]
	}
	return w.Time[a] < w.Time[b]
}

// rankSorter orders the accumulated scores by Score descending, uid
// ascending — the ranking contract of Algorithm 1's output.
type rankSorter struct{ c *correlator }

func (s *rankSorter) Len() int { return len(s.c.scratch) }
func (s *rankSorter) Swap(i, j int) {
	sc := s.c.scratch
	sc[i], sc[j] = sc[j], sc[i]
}
func (s *rankSorter) Less(i, j int) bool {
	sc := s.c.scratch
	if sc[i].Score != sc[j].Score {
		return sc[i].Score > sc[j].Score
	}
	return sc[i].Uid < sc[j].Uid
}

// sameType reports whether rows a and b belong to the same interface
// type under the current path-classification mode.
func (c *correlator) sameType(a, b int32) bool {
	w := c.w
	return w.FromUid[a] == w.FromUid[b] &&
		w.Handle[a] == w.Handle[b] &&
		w.Code[a] == w.Code[b] &&
		(!c.usePath || w.Size[a] == w.Size[b])
}

// score implements Algorithm 1 with an explicit Δ: for every app and
// every IPC interface type the app invoked, accumulate candidate delays
// [JGRTime−IPCTime, JGRTime−IPCTime+Δ] over the bucketed delay axis and
// take the best-supported bucket as that type's count of suspicious
// calls, summing the counts into the app's jgre_score.
//
// The accumulation is a difference-array sweep: each (call, add) pair
// contributes +w at its minimum-delay bucket and −w one past its
// clamped maximum, and a single prefix-sum pass recovers the per-bucket
// totals — and therefore their maximum — at O(1) per pair. Calls
// with identical timestamps within a type are deduplicated first and
// carry their multiplicity as the weight w. Two exact early exits skip
// bucketing entirely: a type none of whose calls overlaps any add in
// [call, call+MaxDelay] scores zero, and a type whose candidate
// intervals all share a common bucket (max start − min start ≤ Δ
// buckets) scores its full overlapping-pair count, since every interval
// covers the shared bucket and no bucket can exceed the interval count.
// Inexact prunes (dropping low-scoring types or uids) are deliberately
// absent: every type with a nonzero best is part of the output's ByType
// breakdown, so any such skip would change the result.
func (c *correlator) score(d *Defender, w *binder.LogColumns, jgrAdds []time.Duration, delta time.Duration) []AppScore {
	n := w.Len()
	if n == 0 || len(jgrAdds) == 0 {
		return nil
	}
	c.w = w
	defer func() { c.w = nil }()
	c.usePath = !d.cfg.DisablePathClassification

	c.adds = append(c.adds[:0], jgrAdds...)
	slices.Sort(c.adds)
	adds := c.adds

	if cap(c.order) < n {
		c.order = make([]int32, n)
	}
	c.order = c.order[:n]
	for i := range c.order {
		c.order[i] = int32(i)
	}
	if c.sorter.c == nil {
		c.sorter.c = c
		c.ranker.c = c
	}
	sort.Sort(&c.sorter)

	domain := int(d.cfg.MaxDelay/delayBucket) + 2
	if cap(c.diff) < domain+1 {
		c.diff = make([]int64, domain+1)
	}
	c.diff = c.diff[:domain+1]
	deltaBuckets := int(delta / delayBucket)

	var st corrStats
	c.scratch = c.scratch[:0]
	for i := 0; i < n; {
		j := i + 1
		for j < n && c.sameType(c.order[i], c.order[j]) {
			j++
		}
		best := c.typeBest(adds, c.order[i:j], d.cfg.MaxDelay, deltaBuckets, domain, &st)
		if best > 0 {
			st.scored++
			row := c.order[i]
			uid := w.FromUid[row]
			if len(c.scratch) == 0 || c.scratch[len(c.scratch)-1].Uid != uid {
				s := AppScore{Uid: uid, ByType: make(map[string]int64)}
				if a := d.dev.Apps().ByUid(uid); a != nil {
					s.Package = a.Package()
				}
				c.scratch = append(c.scratch, s)
			}
			s := &c.scratch[len(c.scratch)-1]
			s.Score += best
			s.ByType[c.nameFor(d, row)] += best
		}
		i = j
	}
	d.met.observeCorrelation(st)

	sort.Sort(&c.ranker)
	out := make([]AppScore, len(c.scratch))
	copy(out, c.scratch)
	// The ByType maps escape with out; drop the scratch's references so
	// retained backing storage cannot pin them past the caller's use.
	clear(c.scratch)
	return out
}

// corrStats is one score call's worth of correlator telemetry, flushed
// to the registry in a single batch.
type corrStats struct {
	scored    uint64 // types contributing a nonzero best
	skipped   uint64 // types with no (call, add) overlap at all
	shortcuts uint64 // types resolved by the tight-span bound, no sweep
	pairs     uint64 // (call, add) pairs enumerated into the sweep
}

// typeBest resolves one interface type's best-supported delay bucket.
// rows is the type's slice of the sorted permutation, so the referenced
// call times are ascending.
func (c *correlator) typeBest(adds []time.Duration, rows []int32, maxDelay time.Duration, deltaBuckets, domain int, st *corrStats) int64 {
	times := c.w.Time

	// Deduplicate identical call timestamps: w identical calls multiply
	// every overlapping add's contribution by w, one range-add's worth of
	// work instead of w.
	c.ctimes = c.ctimes[:0]
	c.cweight = c.cweight[:0]
	for _, row := range rows {
		ct := times[row]
		if k := len(c.ctimes); k > 0 && c.ctimes[k-1] == ct {
			c.cweight[k-1]++
			continue
		}
		c.ctimes = append(c.ctimes, ct)
		c.cweight = append(c.cweight, 1)
	}

	// One binary search finds where the type's add-overlap span begins;
	// both span endpoints then advance monotonically across the sorted
	// call times. Only JGR creations within [ct, ct+MaxDelay] can be
	// effects of a call at ct.
	if cap(c.clo) < len(c.ctimes) {
		c.clo = make([]int32, len(c.ctimes))
		c.chi = make([]int32, len(c.ctimes))
	}
	c.clo = c.clo[:len(c.ctimes)]
	c.chi = c.chi[:len(c.ctimes)]
	lo := sort.Search(len(adds), func(i int) bool { return adds[i] >= c.ctimes[0] })
	hi := lo
	var total int64
	minStart, maxStart := domain, -1
	for k, ct := range c.ctimes {
		for lo < len(adds) && adds[lo] < ct {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < len(adds) && adds[hi] <= ct+maxDelay {
			hi++
		}
		c.clo[k], c.chi[k] = int32(lo), int32(hi)
		if hi == lo {
			continue
		}
		total += c.cweight[k] * int64(hi-lo)
		if s := int((adds[lo] - ct) / delayBucket); s < minStart {
			minStart = s
		}
		if s := int((adds[hi-1] - ct) / delayBucket); s > maxStart {
			maxStart = s
		}
	}
	if total == 0 {
		st.skipped++
		return 0
	}
	// Tight span: every candidate interval [start, start+Δbuckets]
	// contains the bucket min(maxStart, domain−1), so the best bucket
	// carries all pairs and the sweep is redundant.
	if maxStart-minStart <= deltaBuckets {
		st.shortcuts++
		return total
	}

	// Difference-array sweep over the touched bucket subrange. Interval
	// ends are clamped to the last bucket of the domain.
	for k, ct := range c.ctimes {
		w := c.cweight[k]
		for p := c.clo[k]; p < c.chi[k]; p++ {
			s := int((adds[p] - ct) / delayBucket)
			c.diff[s] += w
			e := s + deltaBuckets
			if e > domain-1 {
				e = domain - 1
			}
			c.diff[e+1] -= w
		}
		st.pairs += uint64(c.chi[k] - c.clo[k])
	}
	maxEnd := maxStart + deltaBuckets
	if maxEnd > domain-1 {
		maxEnd = domain - 1
	}
	var best, run int64
	for p := minStart; p <= maxEnd; p++ {
		run += c.diff[p]
		if run > best {
			best = run
		}
	}
	clear(c.diff[minStart : maxEnd+2])
	return best
}

// nameFor resolves the display name for row's interface.
func (c *correlator) nameFor(d *Defender, row int32) string {
	handle, code := c.w.Handle[row], c.w.Code[row]
	if t, ok := d.dev.Resolve(handle, code); ok {
		return t.FullName()
	}
	return fmt.Sprintf("handle%d.code%d", handle, code)
}
