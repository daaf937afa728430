// Package trace provides a bounded, virtual-time-stamped event journal
// for the device simulation: process lifecycle, LMK evictions, soft
// reboots and defender engagements land here, giving examples and
// post-mortem tooling a forensic timeline (the `logcat` of the
// simulator).
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
	// KindSpan marks a structured operation span — a named interval of
	// virtual time with per-phase breakdowns (the defender's poll windows
	// record read/correlate/score/decide phases this way).
	KindSpan
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
	case KindSpan:
		return "SPAN"
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

// Journal is a bounded event ring. The zero value is not usable; create
// with New.
type Journal struct {
	cap int
	// events grows by append until it holds cap events; from then on
	// each new event overwrites the oldest, at head, so eviction is O(1).
	// Retained events, oldest first, are events[head:] then
	// events[:head]; head stays 0 until the journal is full. Storage is
	// not preallocated: most devices never journal cap events.
	events []Event
	head   int
	// dropped counts events discarded to honour the capacity.
	dropped int
}

// New creates a journal holding up to capacity events (0 selects
// DefaultCapacity).
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{cap: capacity}
}

// Reset empties the journal in place, keeping its event storage — the
// fleet slot recycle path rewinds a retired device's journal instead of
// allocating a fresh one per trial.
func (j *Journal) Reset() {
	j.events = j.events[:0]
	j.head = 0
	j.dropped = 0
}

// Record appends an event, evicting the oldest entry when full.
func (j *Journal) Record(ev Event) {
	if len(j.events) < j.cap {
		j.events = append(j.events, ev)
		return
	}
	j.events[j.head] = ev
	j.head++
	if j.head == j.cap {
		j.head = 0
	}
	j.dropped++
}

// Add is Record with the fields spelled out.
func (j *Journal) Add(t time.Duration, kind Kind, subject, detail string) {
	j.Record(Event{T: t, Kind: kind, Subject: subject, Detail: detail})
}

// Phase is one named sub-interval of a Span. Durations are virtual
// time; a phase that advanced no virtual time honestly measures zero.
type Phase struct {
	Name string
	D    time.Duration
}

// Span is a named virtual-time interval with an ordered phase
// breakdown. The defender's poll windows are the canonical producer:
// one span per engagement, phases read/correlate/score/decide.
type Span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Phases []Phase
}

// Duration returns the span's total virtual-time extent.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Detail renders the span's timing breakdown as the event detail line:
// "dur=52.3ms read=0s correlate=52.3ms score=0s decide=0s".
func (s Span) Detail() string {
	out := fmt.Sprintf("dur=%v", s.Duration())
	for _, p := range s.Phases {
		out += fmt.Sprintf(" %s=%v", p.Name, p.D)
	}
	return out
}

// AddSpan journals a completed span as a KindSpan event stamped at the
// span's start time, with the phase breakdown in the detail line.
func (j *Journal) AddSpan(s Span) {
	j.Record(Event{T: s.Start, Kind: KindSpan, Subject: s.Name, Detail: s.Detail()})
}

// ParseSpanDetail reconstructs a Span from a KindSpan journal event —
// the inverse of AddSpan's Detail encoding. The event's timestamp is the
// span's start; "dur=" fixes the extent; the remaining key=value pairs
// become the ordered phase breakdown.
func ParseSpanDetail(ev Event) (Span, error) {
	if ev.Kind != KindSpan {
		return Span{}, fmt.Errorf("trace: ParseSpanDetail on %s event", ev.Kind)
	}
	s := Span{Name: ev.Subject, Start: ev.T, End: ev.T}
	rest := ev.Detail
	for rest != "" {
		field := rest
		if i := indexByte(rest, ' '); i >= 0 {
			field, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if field == "" {
			continue
		}
		eq := indexByte(field, '=')
		if eq <= 0 {
			return Span{}, fmt.Errorf("trace: malformed span field %q", field)
		}
		key, val := field[:eq], field[eq+1:]
		d, err := time.ParseDuration(val)
		if err != nil {
			return Span{}, fmt.Errorf("trace: span field %q: %w", field, err)
		}
		if key == "dur" {
			s.End = s.Start + d
			continue
		}
		s.Phases = append(s.Phases, Phase{Name: key, D: d})
	}
	return s, nil
}

// indexByte avoids importing strings for two single-byte scans.
func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Spans returns the journal's span events (in order); a convenience
// over Filter(KindSpan) for trace consumers.
func (j *Journal) Spans() []Event { return j.Filter(KindSpan) }

// Len returns the current event count.
func (j *Journal) Len() int { return len(j.events) }

// Dropped returns how many events capacity eviction discarded.
func (j *Journal) Dropped() int { return j.dropped }

// Events returns a copy of the journal in order.
func (j *Journal) Events() []Event {
	out := make([]Event, 0, len(j.events))
	return append(append(out, j.events[j.head:]...), j.events[:j.head]...)
}

// Filter returns the events of one kind, in order.
func (j *Journal) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range j.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Since returns the events at or after t.
func (j *Journal) Since(t time.Duration) []Event {
	var out []Event
	for _, e := range j.Events() {
		if e.T >= t {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the journal (optionally only the last n events; n <= 0
// writes everything).
func (j *Journal) Dump(w io.Writer, n int) {
	evs := j.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	if j.dropped > 0 {
		fmt.Fprintf(w, "(%d older events dropped)\n", j.dropped)
	}
	for _, e := range evs {
		fmt.Fprintln(w, e)
	}
}
