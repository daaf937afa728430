// Causal transaction tracing: deterministic trace/span identifiers and
// the bounded per-device flight recorder that stores them. A trace links
// one binder transaction to everything it caused — driver dispatch, the
// service handler, every JGR table mutation made on its behalf, and the
// defender window/score/decision chain it may have tripped — as a tree
// of virtual-time spans.
//
// Determinism contract: trace IDs are minted from (device seed,
// transaction sequence) with a splitmix64 finalizer and span IDs from a
// per-recorder counter; neither ever consults wall-clock time, so a
// device's span stream is a pure function of its boot config and seed —
// byte-identical across worker counts, and between a recycled fleet slot
// and a fresh boot.
package trace

import "time"

// TraceID identifies one causal chain (one traced binder transaction and
// everything it caused). Zero means "not part of a sampled trace".
type TraceID uint64

// SpanID identifies one span within a recorder's stream. Zero means "no
// parent" (a root span).
type SpanID uint64

// MintTraceID derives the trace ID for the transaction with sequence
// number seq on a device booted with seed — a splitmix64 finalizer over
// the pair, never wall-clock, so equal (seed, seq) always yields the
// same ID. The result is never zero (zero is the "untraced" sentinel).
func MintTraceID(seed int64, seq uint64) TraceID {
	x := uint64(seed) ^ (seq+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return TraceID(x)
}

// SpanKind classifies flight-recorder spans along the causal chain.
type SpanKind uint8

// Span kinds, in causal order along one chain.
const (
	// SpanTransact covers one cross-process binder transaction end to
	// end (sender side: latency + log + dispatch + handler).
	SpanTransact SpanKind = iota + 1
	// SpanDispatch covers the driver's share of a transaction: latency
	// charge, IPC log write, node pinning — everything before the
	// handler runs.
	SpanDispatch
	// SpanHandler covers the service handler's execution inside its JNI
	// local frame.
	SpanHandler
	// SpanJGRAdd / SpanJGRDel are point spans (Start == End) marking one
	// global-reference table mutation; Val carries the table size after
	// the operation, which is what the exporter's occupancy counter
	// track reads.
	SpanJGRAdd
	SpanJGRDel
	// SpanDefenderWindow covers a defender engagement's poll window
	// (evidence read + correlation); SpanScore the Algorithm-1 scoring
	// phase; SpanDecision the kill/engage decision and recovery loop.
	SpanDefenderWindow
	SpanScore
	SpanDecision
)

// String names the kind as the exporter's slice title.
func (k SpanKind) String() string {
	switch k {
	case SpanTransact:
		return "binder.transact"
	case SpanDispatch:
		return "binder.dispatch"
	case SpanHandler:
		return "service.handler"
	case SpanJGRAdd:
		return "jgr.add"
	case SpanJGRDel:
		return "jgr.del"
	case SpanDefenderWindow:
		return "defender.window"
	case SpanScore:
		return "defender.score"
	case SpanDecision:
		return "defender.decision"
	default:
		return "span.unknown"
	}
}

// SpanRecord is one fixed-size flight-recorder entry. All fields are
// scalars so the recorder ring stores values, never pointers — emitting
// a span allocates nothing.
type SpanRecord struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	// Start/End are virtual time; point spans have Start == End.
	Start time.Duration
	End   time.Duration
	// Pid is the process the span executed in (the victim service for
	// handler/JGR spans, the sender for transact spans); Uid is the
	// originating app uid carried along the chain for attribution.
	Pid int32
	Uid int32
	// Kind classifies the span; Code carries the transaction code for
	// binder spans; Val is kind-dependent (payload bytes for transact,
	// JGR table size after the op for JGR spans, top score / kill count
	// for defender spans).
	Kind SpanKind
	Code uint32
	Val  int64
}

// DefaultSpanCapacity bounds a flight recorder; oldest spans are
// overwritten first. At 64 bytes per record this is 512 KiB per traced
// device — the documented memory bound (DESIGN.md §15). The ring grows
// to it as spans arrive, so a device that records few spans holds
// little.
const DefaultSpanCapacity = 8192

// Config is the comparable tracing knob a device boots with. The zero
// value (tracing off) is the default: no recorder is built, the hot path
// pays one nil check, and scenario envelopes are untouched.
type Config struct {
	// Enabled turns the flight recorder on.
	Enabled bool
	// Capacity bounds the span ring (0 selects DefaultSpanCapacity).
	Capacity int
	// Sample keeps one in every Sample transactions as a full causal
	// trace (0 or 1 traces all). JGR occupancy and defender spans are
	// always recorded; sampling only thins the per-transaction chains.
	Sample uint64
}

// Recorder is the per-device flight recorder: a bounded ring of span
// records plus the current causal context (which trace the device is
// executing right now). It is single-goroutine like the device it
// belongs to. A nil *Recorder is valid and inert — every method
// nil-checks, which is how tracing-off devices pay only a branch.
type Recorder struct {
	seed   int64
	sample uint64
	spans  Ring[SpanRecord]
	// spanSeq mints span IDs; it survives ring eviction so IDs stay
	// unique per device lifetime.
	spanSeq uint64

	ctxTrace TraceID
	ctxSpan  SpanID
	ctxUid   int32
}

// NewRecorder builds a flight recorder for a device booted with seed.
// capacity <= 0 selects DefaultSpanCapacity; sample as in Config.Sample.
func NewRecorder(capacity int, sample uint64, seed int64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Recorder{seed: seed, sample: sample, spans: NewRing[SpanRecord](capacity)}
}

// Enabled reports whether spans are being recorded; safe on nil.
func (r *Recorder) Enabled() bool { return r != nil }

// Reset rewinds the recorder for a recycled device slot, keeping the
// ring storage and re-keying the trace-ID mint to the new trial's seed.
func (r *Recorder) Reset(seed int64) {
	if r == nil {
		return
	}
	r.seed = seed
	r.spans.Reset()
	r.spanSeq = 0
	r.ctxTrace, r.ctxSpan, r.ctxUid = 0, 0, 0
}

// SampleTx reports whether the transaction with sequence seq is traced
// under the sampling knob.
func (r *Recorder) SampleTx(seq uint64) bool {
	if r == nil {
		return false
	}
	return r.sample <= 1 || seq%r.sample == 0
}

// MintTrace mints the trace ID for transaction sequence seq.
func (r *Recorder) MintTrace(seq uint64) TraceID { return MintTraceID(r.seed, seq) }

// NextSpanID mints the next span ID.
func (r *Recorder) NextSpanID() SpanID {
	r.spanSeq++
	return SpanID(r.spanSeq)
}

// SetContext installs the causal context subsequent JGR and defender
// spans attach to: the active trace, the span acting as their parent,
// and the originating uid.
func (r *Recorder) SetContext(t TraceID, parent SpanID, uid int32) {
	if r == nil {
		return
	}
	r.ctxTrace, r.ctxSpan, r.ctxUid = t, parent, uid
}

// Context returns the current causal context (zeros outside any traced
// transaction).
func (r *Recorder) Context() (TraceID, SpanID, int32) {
	if r == nil {
		return 0, 0, 0
	}
	return r.ctxTrace, r.ctxSpan, r.ctxUid
}

// Emit stores one span record, overwriting the oldest when the ring is
// full. The record is copied by value; once the ring has grown to its
// working size, emitting allocates nothing.
func (r *Recorder) Emit(rec SpanRecord) {
	if r == nil {
		return
	}
	r.spans.Push(rec)
}

// EmitJGR records a global-reference table mutation as a point span in
// the current causal context. count is the table size after the op.
func (r *Recorder) EmitJGR(add bool, t time.Duration, pid int32, count int) {
	if r == nil {
		return
	}
	k := SpanJGRDel
	if add {
		k = SpanJGRAdd
	}
	r.spanSeq++
	r.Emit(SpanRecord{
		Trace: r.ctxTrace, ID: SpanID(r.spanSeq), Parent: r.ctxSpan,
		Kind: k, Start: t, End: t, Pid: pid, Uid: r.ctxUid, Val: int64(count),
	})
}

// Len returns how many spans the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.spans.Len()
}

// Total returns how many spans were ever emitted.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return uint64(r.spans.Len()) + r.spans.Dropped()
}

// Dropped returns how many spans ring eviction discarded — the "no
// silent caps" counter device.Stats and the fleet rollup surface.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.spans.Dropped()
}

// Spans returns a copy of the retained spans, oldest first.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	return r.spans.AppendTo(nil)
}
