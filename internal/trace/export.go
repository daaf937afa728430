// Chrome trace-event JSON export for flight-recorder spans. The output
// loads in Perfetto (ui.perfetto.dev) and chrome://tracing: one track
// per process, binder transact/dispatch/handler chains and defender poll
// windows as nested slices, JGR table occupancy as a counter track, and
// JGR mutations belonging to a sampled trace as instant markers.
//
// Export is deterministic: spans are ordered by (Start, Kind, ID, Trace,
// Pid) — a total order even under identical virtual timestamps, because
// span IDs are unique per recorder — and every event is rendered through
// encoding/json with fixed field order. Equal span sets yield equal
// bytes, which is what the fleet trace's byte-identity test (across
// worker counts, recycled slots against fresh boots) asserts.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Exporter thread IDs: binder activity and defender activity get their
// own named track per process so their slices nest among themselves.
const (
	tidBinder   = 1
	tidDefender = 2
)

type chromeEvent struct {
	Ph   string     `json:"ph"`
	Pid  int64      `json:"pid"`
	Tid  int64      `json:"tid,omitempty"`
	Ts   float64    `json:"ts"`
	Dur  *float64   `json:"dur,omitempty"`
	Name string     `json:"name"`
	S    string     `json:"s,omitempty"`
	Args chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name   string `json:"name,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Uid    int32  `json:"uid,omitempty"`
	Code   uint32 `json:"code,omitempty"`
	Val    *int64 `json:"val,omitempty"`
	Refs   *int64 `json:"refs,omitempty"`
}

// micros renders virtual time as trace-event microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// exportOrder is the deterministic total order: virtual start time
// first, then kind, then the unique span ID as the final tie-break.
func exportOrder(a, b SpanRecord) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Trace != b.Trace {
		return a.Trace < b.Trace
	}
	return a.Pid < b.Pid
}

// ExportChrome writes the spans as Chrome trace-event JSON. procNames
// maps pids to display names for the per-process tracks; unnamed pids
// render as "pid<N>". spans may be in any order and are not mutated.
func ExportChrome(w io.Writer, spans []SpanRecord, procNames map[int32]string) error {
	sorted := make([]SpanRecord, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool { return exportOrder(sorted[i], sorted[j]) })

	// Process metadata tracks: every pid seen in a span or named by the
	// caller, in ascending pid order.
	pids := make(map[int32]bool, len(procNames))
	for _, s := range sorted {
		pids[s.Pid] = true
	}
	for pid := range procNames {
		pids[pid] = true
	}
	order := make([]int32, 0, len(pids))
	for pid := range pids {
		order = append(order, pid)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var events []chromeEvent
	for _, pid := range order {
		name := procNames[pid]
		if name == "" {
			name = fmt.Sprintf("pid%d", pid)
		}
		events = append(events,
			chromeEvent{Ph: "M", Pid: int64(pid), Name: "process_name", Args: chromeArgs{Name: name}},
			chromeEvent{Ph: "M", Pid: int64(pid), Tid: tidBinder, Name: "thread_name", Args: chromeArgs{Name: "binder"}},
			chromeEvent{Ph: "M", Pid: int64(pid), Tid: tidDefender, Name: "thread_name", Args: chromeArgs{Name: "defender"}},
		)
	}

	for _, s := range sorted {
		args := chromeArgs{
			Span:   uint64(s.ID),
			Parent: uint64(s.Parent),
			Uid:    s.Uid,
			Code:   s.Code,
		}
		if s.Trace != 0 {
			args.Trace = fmt.Sprintf("%#016x", uint64(s.Trace))
		}
		ts := micros(s.Start)
		switch s.Kind {
		case SpanJGRAdd, SpanJGRDel:
			// Occupancy counter track (one per process), plus an instant
			// marker on the binder track when the mutation belongs to a
			// sampled causal chain.
			refs := s.Val
			events = append(events, chromeEvent{
				Ph: "C", Pid: int64(s.Pid), Ts: ts, Name: "jgr_occupancy",
				Args: chromeArgs{Refs: &refs},
			})
			if s.Trace != 0 {
				val := s.Val
				args.Val = &val
				events = append(events, chromeEvent{
					Ph: "i", Pid: int64(s.Pid), Tid: tidBinder, Ts: ts,
					Name: s.Kind.String(), S: "t", Args: args,
				})
			}
		default:
			dur := micros(s.End - s.Start)
			if dur < 0 {
				dur = 0
			}
			tid := int64(tidBinder)
			switch s.Kind {
			case SpanDefenderWindow, SpanScore, SpanDecision:
				tid = tidDefender
			}
			val := s.Val
			args.Val = &val
			events = append(events, chromeEvent{
				Ph: "X", Pid: int64(s.Pid), Tid: tid, Ts: ts, Dur: &dur,
				Name: s.Kind.String(), Args: args,
			})
		}
	}

	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// ValidateChrome checks that b is well-formed trace-event JSON: a
// traceEvents array whose members all carry a known phase, a pid, a
// numeric timestamp and a name, with non-negative durations on complete
// events. The fuzz harness and the golden-trace test both gate on it.
func ValidateChrome(b []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("trace: export is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("trace: export has no traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M", "X", "C", "i":
		default:
			return fmt.Errorf("trace: event %d has unknown phase %q", i, ph)
		}
		if _, ok := ev["pid"].(float64); !ok {
			return fmt.Errorf("trace: event %d has no pid", i)
		}
		if name, _ := ev["name"].(string); name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		if ph == "M" {
			continue
		}
		if _, ok := ev["ts"].(float64); !ok {
			return fmt.Errorf("trace: event %d has no timestamp", i)
		}
		if ph == "X" {
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				return fmt.Errorf("trace: complete event %d has bad duration", i)
			}
		}
	}
	return nil
}
