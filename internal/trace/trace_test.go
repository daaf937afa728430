package trace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRecordAndAccessors(t *testing.T) {
	j := New(0)
	j.Add(time.Second, KindSpawn, "system_server", "boot")
	j.Add(2*time.Second, KindKill, "com.evil.app", "jgre-defender")
	j.Add(3*time.Second, KindReboot, "system_server", "runtime abort")
	if j.Len() != 3 {
		t.Fatalf("Len = %d", j.Len())
	}
	evs := j.Events()
	if len(evs) != 3 || evs[1].Subject != "com.evil.app" {
		t.Fatalf("Events = %v", evs)
	}
	evs[0].Subject = "mutated"
	if j.Events()[0].Subject != "system_server" {
		t.Fatal("Events leaked internal storage")
	}
}

func TestCapacityEviction(t *testing.T) {
	j := New(3)
	for i := 0; i < 5; i++ {
		j.Add(time.Duration(i)*time.Second, KindNote, "s", "d")
	}
	if j.Len() != 3 || j.Dropped() != 2 {
		t.Fatalf("Len = %d, Dropped = %d", j.Len(), j.Dropped())
	}
	if got := j.Events()[0].T; got != 2*time.Second {
		t.Fatalf("oldest retained = %v, want 2s", got)
	}
}

func TestDump(t *testing.T) {
	j := New(2)
	j.Add(time.Second, KindLMK, "com.bg.app", "evicted")
	j.Add(2*time.Second, KindDetection, "system_server", "killed [com.evil.app]")
	j.Add(3*time.Second, KindNote, "x", "y")
	var sb strings.Builder
	j.Dump(&sb, 0)
	out := sb.String()
	if !strings.Contains(out, "(1 older events dropped)") {
		t.Errorf("dropped marker missing:\n%s", out)
	}
	if !strings.Contains(out, "JGRE") || !strings.Contains(out, "NOTE") {
		t.Errorf("tags missing:\n%s", out)
	}
	var tail strings.Builder
	j.Dump(&tail, 1)
	if strings.Contains(tail.String(), "JGRE") {
		t.Error("Dump(1) printed more than the last event")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindSpawn: "SPAWN", KindKill: "KILL", KindLMK: "LMK",
		KindReboot: "REBOOT", KindDetection: "JGRE", KindNote: "NOTE",
		Kind(42): "KIND(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d = %q, want %q", int(k), got, want)
		}
	}
}

// TestJournalRingMatchesShiftReference fills journals of several
// capacities to 3× capacity and checks, after every event, that Len,
// Dropped, Events and Dump see exactly what the copy-shift reference
// holds — before the ring fills, at the first wrap and across repeated
// wraps — and that a Reset mid-wrap rewinds the ring to a state the
// reference agrees with.
func TestJournalRingMatchesShiftReference(t *testing.T) {
	kinds := []Kind{KindSpawn, KindKill, KindLMK, KindNote}
	check := func(t *testing.T, j *Journal, ref *shiftRing[Event], step int) {
		t.Helper()
		if j.Len() != len(ref.buf) || j.Dropped() != ref.dropped {
			t.Fatalf("step %d: Len/Dropped = %d/%d, reference %d/%d", step, j.Len(), j.Dropped(), len(ref.buf), ref.dropped)
		}
		if got := j.Events(); len(ref.buf) > 0 && !reflect.DeepEqual(got, ref.buf) {
			t.Fatalf("step %d: Events = %v, reference %v", step, got, ref.buf)
		}
		for _, n := range []int{0, 1, j.Cap() - 1, j.Cap() + 1} {
			var want strings.Builder
			evs := ref.buf
			if n > 0 && len(evs) > n {
				evs = evs[len(evs)-n:]
			}
			if ref.dropped > 0 {
				fmt.Fprintf(&want, "(%d older events dropped)\n", ref.dropped)
			}
			for _, e := range evs {
				fmt.Fprintln(&want, e)
			}
			var got strings.Builder
			j.Dump(&got, n)
			if got.String() != want.String() {
				t.Fatalf("step %d: Dump(%d) =\n%s\nreference\n%s", step, n, got.String(), want.String())
			}
		}
	}
	for _, capacity := range []int{1, 2, 5, 64} {
		t.Run(fmt.Sprintf("capacity-%d", capacity), func(t *testing.T) {
			j := New(capacity)
			ref := &shiftRing[Event]{cap: capacity}
			fill := func(n int) {
				for i := 0; i < n; i++ {
					ev := Event{T: time.Duration(i) * time.Second, Kind: kinds[i%len(kinds)], Subject: fmt.Sprintf("p%d", i), Detail: "d"}
					j.Push(ev)
					ref.push(ev)
					check(t, j, ref, i)
				}
			}
			fill(3 * capacity)
			if ref.dropped != uint64(2*capacity) {
				t.Fatalf("reference dropped %d, want %d", ref.dropped, 2*capacity)
			}
			// Reset mid-wrap, with the oldest event away from slot 0.
			fill(capacity/2 + 1)
			j.Reset()
			ref.buf, ref.dropped = ref.buf[:0], 0
			check(t, j, ref, 0)
			fill(capacity + capacity/2 + 1)
		})
	}
}
