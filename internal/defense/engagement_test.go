package defense

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
)

// emptyStore drops every engagement the store holds, so the next borrow
// starts on empty storage.
func emptyStore() {
	store.mu.Lock()
	store.free = nil
	store.mu.Unlock()
}

// storeTop returns the engagement the next borrow takes, or nil.
func storeTop() *engagement {
	store.mu.Lock()
	defer store.mu.Unlock()
	if n := len(store.free); n > 0 {
		return store.free[n-1]
	}
	return nil
}

// TestBorrowedStorageLeavesNoTrace runs a large engagement and then a
// small one in one process, so the small one scores on the storage the
// large one grew and returned: an add-time log, window and correlator
// sized for the paper's 4,000/12,000 thresholds and a 250 ms delay
// domain, lent to a quick-scale defender with a 50 ms domain whose
// evidence is 70% dropped (so fallback blends in and Correlation is
// set). Its KeepRaw Detection must equal the same small engagement run
// after emptying the store.
func TestBorrowedStorageLeavesNoTrace(t *testing.T) {
	small := func() Detection {
		det, _ := faultedEngagement(t, faults.Config{DropRate: 0.7}, Config{
			AlarmThreshold: 400, EngageThreshold: 1200,
			MaxDelay: 50 * time.Millisecond, KeepRaw: true,
		})
		return det
	}
	emptyStore()
	want := small()
	if want.Correlation == nil || !want.FallbackUsed {
		t.Fatal("the small engagement did not blend fallback into a correlation ranking")
	}

	emptyStore()
	large, _ := faultedEngagement(t, faults.Config{}, Config{KeepRaw: true})
	grown := storeTop()
	if grown == nil {
		t.Fatal("the large engagement returned no storage to the store")
	}
	if cap(grown.addTimes) < len(large.RawAddTimes) || cap(grown.window.Seq) < large.Records ||
		len(large.RawAddTimes) <= len(want.RawAddTimes) {
		t.Fatalf("returned storage holds %d add times and %d rows after an engagement of %d and %d; want at least those, above the small one's %d",
			cap(grown.addTimes), cap(grown.window.Seq), len(large.RawAddTimes), large.Records, len(want.RawAddTimes))
	}
	got := small()
	if storeTop() != grown {
		t.Fatal("the small engagement did not borrow and return the large one's storage")
	}

	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Scores", got.Scores, want.Scores},
		{"Correlation", got.Correlation, want.Correlation},
		{"Killed", got.Killed, want.Killed},
		{"RawWindow", got.RawWindow, want.RawWindow},
		{"RawAddTimes", got.RawAddTimes, want.RawAddTimes},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s on borrowed storage differs from an empty store's:\n borrowed: %+v\n    empty: %+v", f.name, f.got, f.want)
		}
	}
}

// TestEngagementReleaseEmpties pins what a returned engagement keeps:
// its add-time log and window come back empty with their capacity, and
// the next borrow takes the most recently returned one.
func TestEngagementReleaseEmpties(t *testing.T) {
	emptyStore()
	e := borrowEngagement()
	e.addTimes = append(e.addTimes, 1, 2, 3)
	e.window.Grow(8)
	e.window.Seq = append(e.window.Seq, 1)
	e.release()
	again := borrowEngagement()
	if again != e {
		t.Fatal("borrow after a release did not take the returned engagement")
	}
	if len(again.addTimes) != 0 || again.window.Len() != 0 {
		t.Fatalf("returned engagement kept %d add times and %d rows", len(again.addTimes), again.window.Len())
	}
	if cap(again.addTimes) < 3 || cap(again.window.Seq) < 8 {
		t.Fatal("returned engagement dropped its capacity")
	}
	if fresh := borrowEngagement(); fresh == again {
		t.Fatal("one engagement lent twice")
	}
	again.release()
}
