package event

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue[string]
	q.Push(30, 0, "c")
	q.Push(10, 0, "a")
	q.Push(20, 0, "b")
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	for _, want := range []string{"a", "b", "c"} {
		v, _, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = (%q, %v), want (%q, true)", v, ok, want)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestQueueTieBreaksByPriThenSeq(t *testing.T) {
	var q Queue[int]
	// Same time: pri decides; same pri: insertion order decides.
	q.Push(5, 2, 0)
	q.Push(5, 1, 1)
	q.Push(5, 1, 2)
	q.Push(5, 0, 3)
	var got []int
	for q.Len() > 0 {
		v, _, _ := q.Pop()
		got = append(got, v)
	}
	want := []int{3, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// refItem mirrors the queue's ordering key for the model-based tests.
type refItem struct {
	at  time.Duration
	pri uint64
	seq int
	v   int
}

type refQueue []refItem

func (r refQueue) popMin() (refItem, bool) {
	if len(r) == 0 {
		return refItem{}, false
	}
	min := 0
	for i := 1; i < len(r); i++ {
		a, b := r[i], r[min]
		if a.at != b.at {
			if a.at < b.at {
				min = i
			}
			continue
		}
		if a.pri != b.pri {
			if a.pri < b.pri {
				min = i
			}
			continue
		}
		if a.seq < b.seq {
			min = i
		}
	}
	return r[min], true
}

func (r *refQueue) remove(it refItem) {
	for i := range *r {
		if (*r)[i].seq == it.seq {
			*r = append((*r)[:i], (*r)[i+1:]...)
			return
		}
	}
}

// TestQueueMatchesReference drives the heap and a linear-scan reference
// model with the same random push/pop schedule and requires identical
// pop sequences.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue[int]
	var ref refQueue
	seq := 0
	for op := 0; op < 5000; op++ {
		if q.Len() == 0 || rng.Intn(3) != 0 {
			at := time.Duration(rng.Intn(50))
			pri := uint64(rng.Intn(4))
			seq++
			q.Push(at, pri, seq)
			ref = append(ref, refItem{at: at, pri: pri, seq: seq, v: seq})
		} else {
			v, at, ok := q.Pop()
			want, wantOK := ref.popMin()
			if ok != wantOK || v != want.v || at != want.at {
				t.Fatalf("op %d: Pop = (%d, %v, %v), reference (%d, %v, %v)",
					op, v, at, ok, want.v, want.at, wantOK)
			}
			ref.remove(want)
		}
	}
	// Drain: the remaining pops must come out fully sorted.
	var drained []refItem
	for q.Len() > 0 {
		v, at, _ := q.Pop()
		drained = append(drained, refItem{at: at, v: v})
	}
	if !sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i].at < drained[j].at }) {
		t.Fatal("drained items not time-sorted")
	}
	if len(ref) != len(drained) {
		t.Fatalf("drained %d items, reference holds %d", len(drained), len(ref))
	}
}

// FuzzEventQueue differentially fuzzes the heap against the linear-scan
// reference: every byte pair of the input encodes one push (time, pri)
// or a pop, and the two implementations must agree on every pop.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0xff, 0x03, 0x04, 0xff, 0xff})
	f.Add([]byte{0x10, 0x00, 0x10, 0x01, 0xff, 0x10, 0x02, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue[int]
		var ref refQueue
		seq := 0
		for i := 0; i < len(data); i++ {
			if data[i] == 0xff { // pop
				v, at, ok := q.Pop()
				want, wantOK := ref.popMin()
				if ok != wantOK {
					t.Fatalf("pop presence diverged: heap %v, reference %v", ok, wantOK)
				}
				if !ok {
					continue
				}
				if v != want.v || at != want.at {
					t.Fatalf("pop diverged: heap (%d at %v), reference (%d at %v)", v, at, want.v, want.at)
				}
				ref.remove(want)
				continue
			}
			if i+1 >= len(data) {
				break
			}
			at := time.Duration(data[i] % 32)
			pri := uint64(data[i+1] % 4)
			i++
			seq++
			q.Push(at, pri, seq)
			ref = append(ref, refItem{at: at, pri: pri, seq: seq, v: seq})
		}
		if q.Len() != len(ref) {
			t.Fatalf("length diverged: heap %d, reference %d", q.Len(), len(ref))
		}
	})
}
