package trace

import (
	"reflect"
	"testing"
)

// shiftRing is the copy-shift eviction Ring replaced, kept as the
// reference: every eviction moves all retained entries down one slot.
type shiftRing[T any] struct {
	cap     int
	buf     []T
	dropped uint64
}

func (m *shiftRing[T]) push(v T) (evicted bool) {
	if m.cap > 0 && len(m.buf) == m.cap {
		copy(m.buf, m.buf[1:])
		m.buf[len(m.buf)-1] = v
		m.dropped++
		return true
	}
	m.buf = append(m.buf, v)
	return false
}

// Ring script opcodes: a byte's top two bits pick the action, and a
// push run's length is its low seven bits.
const (
	opDrain = 0x80 // AppendTo, then Clear
	opReset = 0xC0
)

// script encodes push runs of the given lengths with a drain after each
// run, the shape of the binder driver's log-then-flush cycle.
func script(runs ...int) []byte {
	var out []byte
	for _, n := range runs {
		for ; n > 0x7f; n -= 0x7f {
			out = append(out, 0x7f)
		}
		out = append(out, byte(n), opDrain)
	}
	return out
}

// FuzzRing drives a Ring and the copy-shift reference through the same
// script of push runs, drains and resets at a drawn capacity, and checks
// after every push that both hold as many entries and agree on whether
// it evicted, and at every drain that both hold the same entries, oldest
// first, with the same eviction count. A bounded ring's storage never
// outgrows its bound.
func FuzzRing(f *testing.F) {
	// The binder pending-log table the ring replaced: capacity, then push
	// runs with a flush between runs.
	for _, tc := range []struct {
		capacity uint8
		runs     []int
	}{
		{0, []int{5, 0, 17, 3}},
		{8, []int{5, 7, 3}},
		{4, []int{4, 4}},
		{4, []int{6, 2}},
		{4, []int{13, 9, 21}},
		{1, []int{5, 1, 3}},
		{16, []int{1000}},
		{3, []int{7, 7, 7, 7}},
	} {
		f.Add(tc.capacity, script(tc.runs...))
	}
	// Repeated wraps: fill to 3× capacity, Reset mid-wrap with the oldest
	// entry away from slot 0, refill.
	for _, c := range []int{1, 2, 5, 64} {
		s := append(script(3*c), byte(c/2+1), opReset)
		f.Add(uint8(c), append(s, script(c+c/2+1)...))
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		r := NewRing[int](int(capacity))
		ref := &shiftRing[int]{cap: int(capacity)}
		if r.Cap() != int(capacity) {
			t.Fatalf("Cap = %d, want %d", r.Cap(), capacity)
		}
		seq := 0
		for i, op := range ops {
			switch {
			case op&opReset == opReset:
				r.Reset()
				ref.buf, ref.dropped = ref.buf[:0], 0
			case op&opDrain == opDrain:
				got := r.AppendTo([]int{-1})
				if got[0] != -1 || !reflect.DeepEqual(got[1:], append([]int{}, ref.buf...)) {
					t.Fatalf("op %d: drained %v, reference %v", i, got, ref.buf)
				}
				if r.Dropped() != ref.dropped {
					t.Fatalf("op %d: Dropped = %d, reference %d", i, r.Dropped(), ref.dropped)
				}
				r.Clear()
				ref.buf = ref.buf[:0]
			default:
				for n := int(op); n > 0; n-- {
					seq++
					if r.Push(seq) != ref.push(seq) {
						t.Fatalf("op %d: eviction disagreement at entry %d", i, seq)
					}
					if r.Len() != len(ref.buf) {
						t.Fatalf("op %d: Len = %d, reference %d", i, r.Len(), len(ref.buf))
					}
				}
			}
			if capacity > 0 && cap(r.buf) > int(capacity) {
				t.Fatalf("op %d: storage %d outgrew the bound %d", i, cap(r.buf), capacity)
			}
		}
	})
}

// TestRingAllocs pins the two allocation properties the fleet benchmark
// leans on. A new ring allocates nothing before its first push, so a
// device that logs or traces little holds little. A ring refilled
// after Reset to its previous length allocates nothing, so a recycled
// slot's buffers never regrow.
func TestRingAllocs(t *testing.T) {
	var r Ring[SpanRecord]
	if n := testing.AllocsPerRun(100, func() { r = NewRing[SpanRecord](DefaultSpanCapacity) }); n != 0 {
		t.Fatalf("NewRing allocated %.1f times", n)
	}
	if cap(r.buf) != 0 {
		t.Fatalf("NewRing reserved %d entries before the first push", cap(r.buf))
	}
	var rec *Recorder
	if n := testing.AllocsPerRun(100, func() { rec = NewRecorder(0, 0, 1) }); n != 1 || rec.Len() != 0 {
		t.Fatalf("NewRecorder allocated %.1f times, want 1 (the recorder, not its ring)", n)
	}
	for _, tc := range []struct {
		name     string
		capacity int
		fill     int
	}{
		{"unbounded", 0, 6046},
		{"bounded-partial", 4096, 100},
		{"bounded-wrapped", 64, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[SpanRecord](tc.capacity)
			refill := func() {
				r.Reset()
				for i := 0; i < tc.fill; i++ {
					r.Push(SpanRecord{ID: SpanID(i)})
				}
			}
			refill()
			if n := testing.AllocsPerRun(20, refill); n != 0 {
				t.Fatalf("refilling after Reset allocated %.1f times", n)
			}
		})
	}
}
