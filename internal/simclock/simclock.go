// Package simclock provides a deterministic virtual clock for the Android
// device simulation. All timestamps in the simulator are expressed as a
// time.Duration since (virtual) device boot, so experiments are exactly
// reproducible and "hours" of attack time execute in milliseconds.
//
// The clock is one atomic word: Now is a single load, and every layer
// that stamps an event (the binder driver, the ART tables, the defender)
// reads it far more often than the event loop moves it.
package simclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonic virtual clock. The zero value is a clock at boot
// time (t = 0), ready to use.
//
// Clock is safe for concurrent use, although the simulation core drives it
// from a single goroutine for determinism.
type Clock struct {
	now atomic.Int64
}

// New returns a clock starting at t = 0.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time since boot.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d. It panics if d is negative: the
// simulator's clock is monotonic and a negative advance always indicates a
// bug in the caller.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	c.now.Add(int64(d))
}

// Set moves the clock to an absolute time t. It panics if t is earlier than
// the current time.
func (c *Clock) Set(t time.Duration) {
	for {
		now := c.now.Load()
		if int64(t) < now {
			panic(fmt.Sprintf("simclock: Set(%v) would move clock backwards from %v", t, time.Duration(now)))
		}
		if c.now.CompareAndSwap(now, int64(t)) {
			return
		}
	}
}

// AdvanceTo moves the clock forward to the absolute time t, the
// event-loop primitive: unlike Set it tolerates a target at or before the
// current time (a no-op), because an event popped at the current instant
// — or scheduled "now" by an actor whose Step already advanced the clock
// through IPC costs — must not panic the core.
func (c *Clock) AdvanceTo(t time.Duration) {
	for {
		now := c.now.Load()
		if int64(t) <= now || c.now.CompareAndSwap(now, int64(t)) {
			return
		}
	}
}
