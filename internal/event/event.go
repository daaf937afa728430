// Package event provides the deterministic priority queue at the heart
// of the discrete-event simulation core. Items are ordered by virtual
// time; ties are broken first by a caller-assigned priority (the workload
// scheduler uses actor registration order, preserving the semantics of
// the old linear min-Due scan, where the earlier-registered actor won a
// tie) and then by insertion sequence, so a run replays byte-identically
// regardless of heap-internal layout.
package event

import "time"

// Queue is a deterministic min-heap over (at, pri, seq). The zero value
// is an empty queue ready to use. Queue is not safe for concurrent use;
// the simulation core drives it from a single goroutine.
type Queue[T any] struct {
	items []item[T]
	seq   uint64
}

type item[T any] struct {
	at  time.Duration
	pri uint64
	seq uint64
	v   T
}

// less orders the heap: earliest time first, then lowest priority number,
// then earliest insertion. The triple is a total order over live items
// (seq is unique), which is what makes Pop deterministic.
func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push schedules v at virtual time at. pri breaks same-time ties (lower
// fires first); items equal on both fire in Push order.
func (q *Queue[T]) Push(at time.Duration, pri uint64, v T) {
	q.seq++
	q.items = append(q.items, item[T]{at: at, pri: pri, seq: q.seq, v: v})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest item. ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (v T, at time.Duration, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, 0, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero item[T]
	q.items[last] = zero // release v for GC
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.v, top.at, true
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			return
		}
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
}
