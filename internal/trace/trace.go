// Package trace holds the simulator's bounded records and the causal
// tracing built on them. Ring is the one bounded buffer: it keeps the
// newest entries oldest first and counts what it evicts. This package's
// Journal and Recorder, the telemetry sampler's series and the binder
// driver's pending IPC log are all Rings. The Journal is the
// virtual-time event log — process lifecycle, LMK evictions, soft
// reboots, defender detections: the simulator's logcat. The Recorder is
// the per-device flight recorder of causal spans; its Spans is the one
// way spans leave a device, and ExportChrome writes them as trace-event
// JSON for Perfetto.
package trace

import (
	"fmt"
	"io"
	"time"
)

// Kind classifies journal events.
type Kind int

// Event kinds.
const (
	KindSpawn Kind = iota + 1
	KindKill
	KindLMK
	KindReboot
	KindDetection
	KindNote
)

// String returns the logcat-style tag.
func (k Kind) String() string {
	switch k {
	case KindSpawn:
		return "SPAWN"
	case KindKill:
		return "KILL"
	case KindLMK:
		return "LMK"
	case KindReboot:
		return "REBOOT"
	case KindDetection:
		return "JGRE"
	case KindNote:
		return "NOTE"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Event is one journal entry.
type Event struct {
	T       time.Duration
	Kind    Kind
	Subject string // process/package/service concerned
	Detail  string
}

// String renders one logcat-style line.
func (e Event) String() string {
	return fmt.Sprintf("%10.3f %-6s %-28s %s", e.T.Seconds(), e.Kind, e.Subject, e.Detail)
}

// DefaultCapacity bounds the journal; older events are dropped first.
const DefaultCapacity = 4096

// Journal is the bounded event ring; Len, Dropped and Reset come from
// its Ring. Create with New, which sets the bound.
type Journal struct {
	Ring[Event]
}

// New creates a journal holding up to capacity events (0 selects
// DefaultCapacity).
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{NewRing[Event](capacity)}
}

// Add appends an event, evicting the oldest entry when full.
func (j *Journal) Add(t time.Duration, kind Kind, subject, detail string) {
	j.Push(Event{T: t, Kind: kind, Subject: subject, Detail: detail})
}

// Events returns a copy of the journal in order.
func (j *Journal) Events() []Event { return j.AppendTo(nil) }

// Dump writes the journal (optionally only the last n events; n <= 0
// writes everything).
func (j *Journal) Dump(w io.Writer, n int) {
	evs := j.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	if d := j.Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d older events dropped)\n", d)
	}
	for _, e := range evs {
		fmt.Fprintln(w, e)
	}
}
