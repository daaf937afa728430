package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestMintTraceIDDeterministicAndNonZero(t *testing.T) {
	if got, want := MintTraceID(42, 7), MintTraceID(42, 7); got != want {
		t.Fatalf("MintTraceID not deterministic: %#x vs %#x", got, want)
	}
	if MintTraceID(42, 7) == MintTraceID(42, 8) {
		t.Fatal("adjacent sequence numbers minted the same trace ID")
	}
	if MintTraceID(42, 7) == MintTraceID(43, 7) {
		t.Fatal("different seeds minted the same trace ID")
	}
	// Zero is the untraced sentinel; scan a window of seeds/seqs to make
	// sure the mint never returns it.
	for seed := int64(-4); seed < 4; seed++ {
		for seq := uint64(0); seq < 1000; seq++ {
			if MintTraceID(seed, seq) == 0 {
				t.Fatalf("MintTraceID(%d, %d) = 0", seed, seq)
			}
		}
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.SampleTx(0) {
		t.Fatal("nil recorder samples transactions")
	}
	r.Reset(9)
	r.SetContext(1, 2, 3)
	r.Emit(SpanRecord{Kind: SpanTransact})
	r.EmitJGR(true, 0, 1, 5)
	tr, sp, uid := r.Context()
	if tr != 0 || sp != 0 || uid != 0 {
		t.Fatalf("nil recorder context = (%d, %d, %d), want zeros", tr, sp, uid)
	}
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder holds state")
	}
}

func TestRecorderRingEvictionAndDropped(t *testing.T) {
	r := NewRecorder(4, 0, 1)
	for i := 0; i < 10; i++ {
		r.Emit(SpanRecord{ID: SpanID(i + 1), Kind: SpanTransact, Start: time.Duration(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6 (no silent caps)", r.Dropped())
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("Spans returned %d records, want 4", len(spans))
	}
	// Oldest first, and the survivors are the newest four.
	for i, s := range spans {
		if want := SpanID(i + 7); s.ID != want {
			t.Fatalf("spans[%d].ID = %d, want %d (oldest-first window)", i, s.ID, want)
		}
	}
}

func TestRecorderResetRekeysMint(t *testing.T) {
	r := NewRecorder(8, 0, 1)
	r.Emit(SpanRecord{Kind: SpanTransact})
	r.SetContext(5, 6, 7)
	before := r.MintTrace(3)
	r.Reset(2)
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset kept span state")
	}
	if tr, sp, uid := r.Context(); tr != 0 || sp != 0 || uid != 0 {
		t.Fatalf("Reset kept context (%d, %d, %d)", tr, sp, uid)
	}
	if after := r.MintTrace(3); after == before {
		t.Fatal("Reset did not re-key the trace-ID mint to the new seed")
	}
	if got, want := r.MintTrace(3), MintTraceID(2, 3); got != want {
		t.Fatalf("post-Reset mint = %#x, want MintTraceID(2, 3) = %#x", got, want)
	}
	if r.NextSpanID() != 1 {
		t.Fatal("Reset did not rewind the span-ID counter")
	}
}

func TestSampleTx(t *testing.T) {
	for _, sample := range []uint64{0, 1} {
		r := NewRecorder(8, sample, 1)
		for seq := uint64(0); seq < 5; seq++ {
			if !r.SampleTx(seq) {
				t.Fatalf("sample=%d: SampleTx(%d) = false, want all traced", sample, seq)
			}
		}
	}
	r := NewRecorder(8, 4, 1)
	for seq := uint64(0); seq < 16; seq++ {
		if got, want := r.SampleTx(seq), seq%4 == 0; got != want {
			t.Fatalf("sample=4: SampleTx(%d) = %v, want %v", seq, got, want)
		}
	}
}

func TestEmitJGRInheritsContext(t *testing.T) {
	r := NewRecorder(8, 0, 1)
	r.SetContext(TraceID(0xabc), SpanID(11), 10061)
	r.EmitJGR(true, 5*time.Millisecond, 901, 1234)
	r.EmitJGR(false, 6*time.Millisecond, 901, 1233)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	add, del := spans[0], spans[1]
	if add.Kind != SpanJGRAdd || del.Kind != SpanJGRDel {
		t.Fatalf("kinds = %v, %v", add.Kind, del.Kind)
	}
	if add.Trace != 0xabc || add.Parent != 11 || add.Uid != 10061 {
		t.Fatalf("add span did not inherit context: %+v", add)
	}
	if add.Start != add.End {
		t.Fatal("JGR mutation is not a point span")
	}
	if add.Val != 1234 || del.Val != 1233 {
		t.Fatalf("Val = %d, %d, want table sizes 1234, 1233", add.Val, del.Val)
	}
	if add.ID == del.ID {
		t.Fatal("span IDs not unique")
	}
}

func TestSpanKindStrings(t *testing.T) {
	want := map[SpanKind]string{
		SpanTransact:       "binder.transact",
		SpanDispatch:       "binder.dispatch",
		SpanHandler:        "service.handler",
		SpanJGRAdd:         "jgr.add",
		SpanJGRDel:         "jgr.del",
		SpanDefenderWindow: "defender.window",
		SpanScore:          "defender.score",
		SpanDecision:       "defender.decision",
		SpanKind(99):       "span.unknown",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
}

// TestSpanRecordSize pins the record size DefaultSpanCapacity's
// documented memory bound is computed from: 8,192 records of 64 bytes
// are 512 KiB per traced device (DESIGN.md §15).
func TestSpanRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(SpanRecord{}); got != 64 {
		t.Fatalf("SpanRecord is %d bytes, want 64; update DefaultSpanCapacity's memory bound and DESIGN.md §15", got)
	}
	if got := DefaultSpanCapacity * unsafe.Sizeof(SpanRecord{}); got != 512<<10 {
		t.Fatalf("a full default recorder holds %d bytes, want 512 KiB", got)
	}
}

// TestExportOrderTotalUnderEqualTimestamps pins the exporter's
// determinism under identical virtual timestamps: span IDs are unique
// per recorder, so (Start, Kind, ID) is a total order and shuffled
// input yields byte-identical output.
func TestExportOrderTotalUnderEqualTimestamps(t *testing.T) {
	at := 10 * time.Millisecond
	spans := []SpanRecord{
		{Trace: 3, ID: 5, Kind: SpanHandler, Start: at, End: at + time.Millisecond, Pid: 901},
		{Trace: 3, ID: 4, Kind: SpanDispatch, Start: at, End: at, Pid: 901},
		{Trace: 3, ID: 6, Kind: SpanTransact, Start: at, End: at + 2*time.Millisecond, Pid: 10061},
		{Trace: 3, ID: 7, Kind: SpanJGRAdd, Start: at, End: at, Pid: 901, Val: 40},
		{Trace: 3, ID: 8, Kind: SpanJGRAdd, Start: at, End: at, Pid: 901, Val: 41},
	}
	names := map[int32]string{901: "system_server"}

	var want bytes.Buffer
	if err := ExportChrome(&want, spans, names); err != nil {
		t.Fatal(err)
	}
	// Every rotation of the input must export the same bytes.
	for rot := 1; rot < len(spans); rot++ {
		shuffled := append(append([]SpanRecord(nil), spans[rot:]...), spans[:rot]...)
		var got bytes.Buffer
		if err := ExportChrome(&got, shuffled, names); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("rotation %d changed the export", rot)
		}
	}
	if err := ValidateChrome(want.Bytes()); err != nil {
		t.Fatal(err)
	}
	// binder.transact sorts before binder.dispatch at the same timestamp
	// (kind order mirrors causal order: the transaction encloses its
	// dispatch), and the two same-kind JGR adds break the tie on span ID.
	out := want.String()
	if ti, di := strings.Index(out, "binder.transact"), strings.Index(out, "binder.dispatch"); ti < 0 || di < 0 || ti > di {
		t.Fatalf("kind tie-break violated: transact at %d, dispatch at %d", ti, di)
	}
	if i40, i41 := strings.Index(out, `"refs":40`), strings.Index(out, `"refs":41`); i40 < 0 || i41 < 0 || i40 > i41 {
		t.Fatalf("ID tie-break violated: refs=40 at %d, refs=41 at %d", i40, i41)
	}
}

func TestExportChromeShape(t *testing.T) {
	spans := []SpanRecord{
		{Trace: 1, ID: 1, Kind: SpanTransact, Start: time.Millisecond, End: 3 * time.Millisecond, Pid: 10061, Uid: 10061, Code: 2, Val: 64},
		{Trace: 1, ID: 2, Parent: 1, Kind: SpanJGRAdd, Start: 2 * time.Millisecond, End: 2 * time.Millisecond, Pid: 901, Uid: 10061, Val: 17},
		{Trace: 0, ID: 3, Kind: SpanJGRDel, Start: 4 * time.Millisecond, End: 4 * time.Millisecond, Pid: 901, Val: 16},
		// Defender span with End < Start: the exporter clamps the
		// duration to zero rather than emitting an invalid event.
		{Trace: 1, ID: 4, Kind: SpanDefenderWindow, Start: 5 * time.Millisecond, End: 4 * time.Millisecond, Pid: 901},
	}
	var buf bytes.Buffer
	if err := ExportChrome(&buf, spans, map[int32]string{901: "system_server"}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Named and unnamed process metadata tracks.
	if !strings.Contains(out, `"name":"system_server"`) {
		t.Fatal("missing named process track")
	}
	if !strings.Contains(out, `"name":"pid10061"`) {
		t.Fatal("missing placeholder name for unnamed pid")
	}
	// The traced JGR add yields both a counter sample and an instant; the
	// untraced del yields only the counter.
	if got := strings.Count(out, `"ph":"C"`); got != 2 {
		t.Fatalf("%d counter events, want 2", got)
	}
	if got := strings.Count(out, `"ph":"i"`); got != 1 {
		t.Fatalf("%d instant events, want 1 (untraced mutations emit none)", got)
	}
	if !strings.Contains(out, `"dur":0`) {
		t.Fatal("negative duration was not clamped to zero")
	}
	if !strings.Contains(out, `"trace":"0x`) {
		t.Fatal("missing hex trace ID in args")
	}
}

func TestExportChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	for _, bad := range []string{
		`not json`,
		`{}`,
		`{"traceEvents":[{"ph":"Z","pid":1,"name":"x","ts":0}]}`,
		`{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":1}]}`,
		`{"traceEvents":[{"ph":"X","pid":1,"ts":0,"dur":1}]}`,
		`{"traceEvents":[{"ph":"X","pid":1,"name":"x","dur":1}]}`,
		`{"traceEvents":[{"ph":"X","pid":1,"name":"x","ts":0,"dur":-1}]}`,
		`{"traceEvents":[{"ph":"X","pid":1,"name":"x","ts":0}]}`,
	} {
		if err := ValidateChrome([]byte(bad)); err == nil {
			t.Fatalf("ValidateChrome accepted %q", bad)
		}
	}
}
