// Package trace holds the simulator's bounded records and the causal
// tracing built on them. Ring is the one bounded buffer: it keeps the
// newest entries oldest first and counts what it evicts. The Recorder,
// the telemetry sampler's series and the binder driver's pending IPC log
// are all Rings. The Recorder is the per-device flight recorder of causal
// spans; its Spans is the one way spans leave a device, and ExportChrome
// writes them as trace-event JSON for Perfetto.
package trace

import "slices"

// Ring is a record buffer that keeps its entries oldest first. Once it
// holds Cap entries, each push overwrites the oldest in place, in O(1),
// and counts the eviction, so a bounded buffer never loses a record
// without saying so. Capacity 0 is unbounded.
//
// Storage grows as entries arrive, never past the bound: a new ring
// allocates nothing before its first push. Clear and Reset keep the
// storage, so a ring refilled to its previous length allocates nothing.
// The zero value is an empty unbounded ring.
type Ring[T any] struct {
	// buf holds the entries. It grows by append until it holds max
	// entries; from then on head is the oldest entry's index, and the
	// entries oldest first are buf[head:] then buf[:head]. head stays 0
	// until the ring is full.
	buf     []T
	head    int
	max     int
	dropped uint64
}

// NewRing returns an empty ring holding at most capacity entries
// (0 = unbounded).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{max: max(capacity, 0)}
}

// Push appends v and reports whether it evicted the oldest entry.
func (r *Ring[T]) Push(v T) (evicted bool) {
	if r.max == 0 || len(r.buf) < r.max {
		if r.max > 0 && len(r.buf) == cap(r.buf) {
			// Grow geometrically, but only up to the bound: a full ring
			// holds exactly max entries of storage.
			buf := make([]T, len(r.buf), min(max(2*len(r.buf), 8), r.max))
			copy(buf, r.buf)
			r.buf = buf
		}
		r.buf = append(r.buf, v)
		return false
	}
	r.buf[r.head] = v
	r.head++
	if r.head == r.max {
		r.head = 0
	}
	r.dropped++
	return true
}

// Len returns how many entries the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Cap returns the bound (0 = unbounded).
func (r *Ring[T]) Cap() int { return r.max }

// Dropped returns how many entries eviction discarded since the last
// Reset.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// AppendTo appends the entries, oldest first, to dst and returns the
// extended slice.
func (r *Ring[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, len(r.buf))
	return append(append(dst, r.buf[r.head:]...), r.buf[:r.head]...)
}

// Clear empties the ring, keeping its storage and its eviction count —
// what a consumer does after draining the entries with AppendTo.
func (r *Ring[T]) Clear() {
	r.buf = r.buf[:0]
	r.head = 0
}

// Reset empties the ring and zeroes its eviction count, keeping its
// storage: the fleet slot recycle path rewinds a retired device's
// buffers instead of allocating new ones per trial.
func (r *Ring[T]) Reset() {
	r.Clear()
	r.dropped = 0
}
