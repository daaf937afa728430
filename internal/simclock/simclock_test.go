package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestZeroValueIsBootTime(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero-value clock Now() = %v, want 0", got)
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New()
	c.Advance(3 * time.Second)
	c.Advance(500 * time.Millisecond)
	if got, want := c.Now(), 3500*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	c := New()
	c.Advance(time.Minute)
	c.Advance(0)
	if got, want := c.Now(), time.Minute; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestSetForward(t *testing.T) {
	c := New()
	c.Set(time.Hour)
	if got := c.Now(); got != time.Hour {
		t.Fatalf("Now() = %v, want %v", got, time.Hour)
	}
	// Setting to the same instant is allowed.
	c.Set(time.Hour)
}

func TestSetBackwardPanics(t *testing.T) {
	c := New()
	c.Advance(time.Hour)
	defer func() {
		if recover() == nil {
			t.Fatal("Set(past) did not panic")
		}
	}()
	c.Set(time.Minute)
}

func TestAdvanceToForwardOnly(t *testing.T) {
	c := New()
	c.AdvanceTo(time.Second)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want %v", got, time.Second)
	}
	// Targets at or before the current time are no-ops, not panics: an
	// event popped at the current instant must not crash the core.
	c.AdvanceTo(time.Second)
	c.AdvanceTo(time.Millisecond)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() after backward AdvanceTo = %v, want %v", got, time.Second)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	const (
		workers = 8
		perG    = 1000
	)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), workers*perG*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

// AdvanceTo to distinct targets racing Now: every reader sees the clock
// move forward only, and the largest target wins however the
// compare-and-swap loops interleave.
func TestConcurrentAdvanceToMonotonic(t *testing.T) {
	c := New()
	const (
		workers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := c.Now()
			for j := 0; j < perG; j++ {
				// Targets interleave across workers and are distinct:
				// worker w owns every target congruent to w mod workers.
				c.AdvanceTo(time.Duration((j*workers + w) * 1000))
				now := c.Now()
				if now < last {
					t.Errorf("worker %d: Now went back from %v to %v", w, last, now)
					return
				}
				last = now
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Now(), time.Duration(((perG-1)*workers+workers-1)*1000); got != want {
		t.Fatalf("final Now() = %v, want the largest target %v", got, want)
	}
}
