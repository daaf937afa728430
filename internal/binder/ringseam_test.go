package binder

import (
	"testing"

	"repro/internal/faults"
)

// TestRingEvictionBurstSeam pins the ring-eviction boundary under
// deterministic drop bursts: with capacity 64 and bursts of 10 out of
// every 40 sequence numbers, the ring wraps a dozen times and every
// burst straddles an eviction seam somewhere. The survivor-set
// semantics must stay exactly those of the unbounded same-seed run —
// the survivors are the newest capacity-many records that escaped the
// burst filter, oldest first, carrying identical bytes per seq — and
// the three-way counter split (rate/burst drops vs ring evictions vs
// delivered) must reconcile.
func TestRingEvictionBurstSeam(t *testing.T) {
	const (
		n    = 500
		seed = 11
		cap  = 64
	)
	burst := faults.Config{BurstEvery: 40, BurstLen: 10}
	seamed := faults.Config{BurstEvery: 40, BurstLen: 10, RingCapacity: cap}

	// Reference: burst filter alone, no ring. Its record stream defines
	// both the bytes and the membership the bounded run must preserve.
	free := newFaultRig(t, burst, seed)
	free.flood(t, n)
	if _, err := free.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	freeRecs := free.d.flushed
	// 10 of every 40 seqs burst-dropped, including the final partial
	// cycle (seqs 481-490 sit in its burst segment).
	wantLogged := n - (n/40*10 + min(10, n%40))
	if len(freeRecs) != wantLogged {
		t.Fatalf("unbounded burst run delivered %d records, want %d", len(freeRecs), wantLogged)
	}

	bounded := newFaultRig(t, seamed, seed)
	bounded.flood(t, n)
	if _, err := bounded.d.FlushLog(); err != nil {
		t.Fatal(err)
	}
	survivors := bounded.d.flushed
	if len(survivors) != cap {
		t.Fatalf("survivors = %d, want ring capacity %d", len(survivors), cap)
	}
	// Survivor set: exactly the suffix of the burst-surviving stream.
	want := freeRecs[len(freeRecs)-cap:]
	for i, s := range survivors {
		if s != want[i] {
			t.Fatalf("survivor[%d] diverged across the ring seam:\n ring: %+v\n free: %+v", i, s, want[i])
		}
	}
	// The oldest survivor must sit mid-burst-cycle (the seam): its seq is
	// not aligned to the burst period, proving the eviction boundary cut
	// through a burst window rather than landing on a cycle edge.
	if first := survivors[0].Seq; first%40 == 1 {
		t.Fatalf("oldest survivor seq %d is burst-cycle aligned; seam not exercised", first)
	}

	stats := bounded.d.LogStats()
	if stats.Seq != n {
		t.Fatalf("Seq = %d, want %d", stats.Seq, n)
	}
	if stats.DroppedRate != uint64(n-wantLogged) {
		t.Fatalf("DroppedRate = %d, want %d burst drops", stats.DroppedRate, n-wantLogged)
	}
	if stats.Logged != uint64(wantLogged) {
		t.Fatalf("Logged = %d, want %d", stats.Logged, wantLogged)
	}
	if stats.DroppedRing != uint64(wantLogged-cap) {
		t.Fatalf("DroppedRing = %d, want %d", stats.DroppedRing, wantLogged-cap)
	}
	if stats.Delivered() != cap {
		t.Fatalf("Delivered = %d, want %d", stats.Delivered(), cap)
	}
	if stats.Dropped() != uint64(n-cap) {
		t.Fatalf("Dropped = %d, want %d", stats.Dropped(), n-cap)
	}
}
