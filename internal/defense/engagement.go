package defense

import (
	"sync"
	"time"

	"repro/internal/binder"
)

// engagement is the working storage of one engagement: the victim's JGR
// add times recorded since the alarm, the columnar evidence window read
// at engagement, and the correlator that scores the two. None of it
// outlives the engagement; only the Detection does. Every defender on
// every device borrows this storage from one package-level store and
// returns it when the engagement is over, so a defender built per trial
// (a fleet builds one per device) scores in buffers an earlier trial
// grew.
//
// A monitor borrows an engagement on its first recorded add (the alarm,
// or a checkpoint Restore that carries add times) and returns it when it
// re-arms: after respond completes, or when pressure recedes on its own.
// ScoreWithDelta borrows one for the length of its call. An engagement
// goes back only from code that returned normally. A panic mid-score can
// leave the correlator's difference array half swept, and parallel.Map
// turns a shard's panic into an error and carries on, so a deferred
// return would hand that array to the next engagement; a panicking
// engagement is dropped instead.
type engagement struct {
	addTimes []time.Duration
	window   binder.LogColumns
	corr     correlator
}

// store is the free list of returned engagements. It holds at most as
// many as were ever borrowed at once, one per concurrently recording
// monitor or concurrent ScoreWithDelta call, each as large as the
// biggest window it has served. It is a mutex-guarded list rather than
// a sync.Pool because the garbage collector empties a pool, and a fleet
// of defended trials collects every trial or two, so a pool would often
// hand out new engagements where the list hands back grown ones.
var store struct {
	mu   sync.Mutex
	free []*engagement
}

// borrowEngagement takes an engagement from the store, or makes an
// empty one when the store has none.
func borrowEngagement() *engagement {
	store.mu.Lock()
	defer store.mu.Unlock()
	n := len(store.free)
	if n == 0 {
		return new(engagement)
	}
	e := store.free[n-1]
	store.free[n-1] = nil
	store.free = store.free[:n-1]
	return e
}

// release empties e's add-time log and evidence window, keeping their
// capacity, and returns e to the store. The caller must drop e.
func (e *engagement) release() {
	e.addTimes = e.addTimes[:0]
	e.window.Reset()
	store.mu.Lock()
	store.free = append(store.free, e)
	store.mu.Unlock()
}
