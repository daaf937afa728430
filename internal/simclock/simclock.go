// Package simclock provides a deterministic virtual clock for the Android
// device simulation. All timestamps in the simulator are expressed as a
// time.Duration since (virtual) device boot, so experiments are exactly
// reproducible and "hours" of attack time execute in milliseconds.
package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a monotonic virtual clock. The zero value is a clock at boot
// time (t = 0), ready to use.
//
// Clock is safe for concurrent use, although the simulation core drives it
// from a single goroutine for determinism.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// New returns a clock starting at t = 0.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time since boot.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. It panics if d is negative: the
// simulator's clock is monotonic and a negative advance always indicates a
// bug in the caller.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Set moves the clock to an absolute time t. It panics if t is earlier than
// the current time.
func (c *Clock) Set(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		panic(fmt.Sprintf("simclock: Set(%v) would move clock backwards from %v", t, c.now))
	}
	c.now = t
}

// AdvanceTo moves the clock forward to the absolute time t, the
// event-loop primitive: unlike Set it tolerates a target at or before the
// current time (a no-op), because an event popped at the current instant
// — or scheduled "now" by an actor whose Step already advanced the clock
// through IPC costs — must not panic the core.
func (c *Clock) AdvanceTo(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}
