package defense

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/kernel"
)

// typeKey identifies one IPC interface type for Algorithm 1: the calling
// app, the target interface (handle+code) and, unless path classification
// is disabled, the observable execution-path signature (§VI).
type typeKey struct {
	uid    kernel.Uid
	handle binder.Handle
	code   binder.TxCode
	path   int
}

// referenceScore is Algorithm 1 written out literally, the differential
// oracle for the streaming correlator. Each interface type keeps one
// counter per delay bucket; every (call, JGR add) pair at most MaxDelay
// apart adds one to each bucket of its candidate-delay interval
// [add−call, add−call+Δ], clamped to the domain; the type's count of
// suspicious calls is its largest counter. It shares nothing with the
// code it checks: no sorted grouping, no timestamp dedup, no difference
// array and no early exit.
func referenceScore(d *Defender, w *binder.LogColumns, jgrAdds []time.Duration, delta time.Duration) []AppScore {
	if w.Len() == 0 || len(jgrAdds) == 0 {
		return nil
	}
	domain := int(d.cfg.MaxDelay/delayBucket) + 2
	deltaBuckets := int(delta / delayBucket)
	counts := make(map[typeKey][]int64)
	for i := 0; i < w.Len(); i++ {
		k := typeKey{uid: w.FromUid[i], handle: w.Handle[i], code: w.Code[i]}
		if !d.cfg.DisablePathClassification {
			// §VI: calls of the same IPC method travelling different code
			// paths carry different argument shapes; the transaction size
			// is the observable path signature.
			k.path = w.Size[i]
		}
		if counts[k] == nil {
			counts[k] = make([]int64, domain)
		}
		call := w.Time[i]
		for _, add := range jgrAdds {
			if add < call || add > call+d.cfg.MaxDelay {
				continue
			}
			start := int((add - call) / delayBucket)
			for b := start; b <= start+deltaBuckets && b < domain; b++ {
				counts[k][b]++
			}
		}
	}

	scores := make(map[kernel.Uid]*AppScore)
	for k, buckets := range counts {
		best := slices.Max(buckets)
		if best == 0 {
			continue
		}
		s, ok := scores[k.uid]
		if !ok {
			s = &AppScore{Uid: k.uid, ByType: make(map[string]int64)}
			if a := d.dev.Apps().ByUid(k.uid); a != nil {
				s.Package = a.Package()
			}
			scores[k.uid] = s
		}
		name := fmt.Sprintf("handle%d.code%d", k.handle, k.code)
		if t, resolved := d.dev.Resolve(k.handle, k.code); resolved {
			name = t.FullName()
		}
		s.Score += best
		s.ByType[name] += best
	}
	out := make([]AppScore, 0, len(scores))
	for _, s := range scores {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Uid < out[j].Uid
	})
	return out
}

// TestStreamingMatchesReferenceOnDeviceWindows runs the realistic
// multi-window fixture through the reference and through a fresh
// zero-value, a store-borrowed (ScoreWithDelta) and a persistent
// streaming correlator: live device traffic with resolvable interfaces,
// multiple apps and interleaved types.
func TestStreamingMatchesReferenceOnDeviceWindows(t *testing.T) {
	def, windows, addWindows := correlatorWindows(t)
	var persistent correlator
	for i := range windows {
		for _, delta := range []time.Duration{0, DefaultDelta, 25 * time.Millisecond} {
			want := referenceScore(def, &windows[i], addWindows[i], delta)
			if got := new(correlator).score(def, &windows[i], addWindows[i], delta); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d Δ=%v: fresh diverged:\nstreaming: %+v\nreference: %+v", i, delta, got, want)
			}
			if got := def.ScoreWithDelta(&windows[i], addWindows[i], delta); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d Δ=%v diverged:\nstreaming: %+v\nreference: %+v", i, delta, got, want)
			}
			if got := persistent.score(def, &windows[i], addWindows[i], delta); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d Δ=%v: persistent diverged:\nstreaming: %+v\nreference: %+v", i, delta, got, want)
			}
		}
	}
}

// diffDefenders carries the two shared fuzz defenders: one with path
// classification on at the paper's MaxDelay, one with classification off
// over a tiny 2 ms delay domain so boundary clamping is hit constantly.
// Booting a device dominates a fuzz iteration, so both are built once.
var diffDefenders struct {
	once sync.Once
	path *Defender
	flat *Defender
	err  error
	mu   sync.Mutex // guards the shared persistent correlator below
	pers correlator
}

func fuzzDefenders(tb testing.TB) (*Defender, *Defender) {
	tb.Helper()
	diffDefenders.once.Do(func() {
		boot := func(cfg Config) (*Defender, error) {
			dev, err := device.Boot(device.Config{Seed: 11})
			if err != nil {
				return nil, err
			}
			cfg.AlarmThreshold = 1 << 20
			cfg.EngageThreshold = 1 << 21
			return New(dev, cfg)
		}
		diffDefenders.path, diffDefenders.err = boot(Config{})
		if diffDefenders.err == nil {
			diffDefenders.flat, diffDefenders.err = boot(Config{
				DisablePathClassification: true,
				MaxDelay:                  2 * time.Millisecond,
			})
		}
	})
	if diffDefenders.err != nil {
		tb.Fatal(diffDefenders.err)
	}
	return diffDefenders.path, diffDefenders.flat
}

// synthWindow generates a randomized evidence window: a handful of app
// uids hitting small handle/code/size ranges (some resolve to real
// catalog interfaces, most fall back to handleN.codeM names), with call
// and add times drawn across a span that straddles the MaxDelay
// horizon so overlap windows open, close and clamp.
func synthWindow(rng *rand.Rand, nRec, nAdd int, span time.Duration) (binder.LogColumns, []time.Duration) {
	var w binder.LogColumns
	for i := 0; i < nRec; i++ {
		w.Append(binder.IPCRecord{
			Seq:     uint64(i + 1),
			Time:    time.Duration(rng.Int63n(int64(span))),
			FromPid: kernel.Pid(100 + rng.Intn(4)),
			FromUid: kernel.FirstAppUid + kernel.Uid(rng.Intn(4)),
			ToPid:   2,
			Handle:  binder.Handle(rng.Intn(8)),
			Code:    binder.TxCode(1 + rng.Intn(6)),
			Size:    64 << rng.Intn(3),
		})
	}
	adds := make([]time.Duration, nAdd)
	for i := range adds {
		adds[i] = time.Duration(rng.Int63n(int64(span)))
	}
	return w, adds
}

// FuzzCorrelatorDifferential is the property pin: for randomized
// windows — types, overlaps, duplicated timestamps, Δ, path
// classification on and off — the streaming correlator (a fresh
// zero-value one, ScoreWithDelta's store-borrowed one AND a persistent
// instance recycled across inputs) must match the naive reference
// byte-for-byte.
func FuzzCorrelatorDifferential(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(40), uint32(1800), false)
	f.Add(int64(2), uint8(3), uint8(1), uint32(0), true)
	f.Add(int64(3), uint8(64), uint8(8), uint32(250_000), false)
	f.Add(int64(4), uint8(7), uint8(90), uint32(100), true)
	f.Fuzz(func(t *testing.T, seed int64, nRec, nAdd uint8, deltaMicros uint32, flat bool) {
		pathDef, flatDef := fuzzDefenders(t)
		def := pathDef
		span := 400 * time.Millisecond
		if flat {
			def = flatDef
			span = 5 * time.Millisecond
		}
		rng := rand.New(rand.NewSource(seed))
		w, adds := synthWindow(rng, int(nRec%64)+1, int(nAdd%96)+1, span)
		// Duplicate a random prefix of timestamps so the dedup weighting
		// path is exercised on every input shape.
		for i := 1; i < w.Len(); i += 3 {
			w.Time[i] = w.Time[i-1]
		}
		delta := time.Duration(deltaMicros%300_000) * time.Microsecond

		want := referenceScore(def, &w, adds, delta)
		if got := new(correlator).score(def, &w, adds, delta); !reflect.DeepEqual(got, want) {
			t.Fatalf("fresh streaming diverged from reference:\nstreaming: %+v\nreference: %+v", got, want)
		}
		if got := def.ScoreWithDelta(&w, adds, delta); !reflect.DeepEqual(got, want) {
			t.Fatalf("borrowed streaming diverged from reference:\nstreaming: %+v\nreference: %+v", got, want)
		}
		diffDefenders.mu.Lock()
		persistent := diffDefenders.pers.score(def, &w, adds, delta)
		diffDefenders.mu.Unlock()
		if !reflect.DeepEqual(persistent, want) {
			t.Fatalf("persistent streaming diverged from reference:\npersistent: %+v\nreference: %+v", persistent, want)
		}
	})
}

// TestCorrelatorExhaustiveSmallDomain brute-forces every combination of
// call-time subset × add-time subset × Δ over a 5-slot time grid spanning
// a 300 µs MaxDelay domain, with duplicated calls (weight 2) on one uid
// and a second uid sharing add times through a different interface. On
// a domain this small every boundary case — empty overlap, full-domain
// Δ, end clamping, tied buckets — occurs, and the streaming result must
// equal the reference on all of them.
func TestCorrelatorExhaustiveSmallDomain(t *testing.T) {
	dev, err := device.Boot(device.Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{
		AlarmThreshold:  1 << 20,
		EngageThreshold: 1 << 21,
		MaxDelay:        300 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := []time.Duration{
		0,
		100 * time.Microsecond,
		250 * time.Microsecond,
		400 * time.Microsecond,
		750 * time.Microsecond,
	}
	deltas := []time.Duration{0, 100 * time.Microsecond, 300 * time.Microsecond}
	var persistent correlator
	combos := 0
	for callMask := 1; callMask < 1<<len(grid); callMask++ {
		var w binder.LogColumns
		seq := uint64(1)
		for b, ct := range grid {
			if callMask&(1<<b) == 0 {
				continue
			}
			// uid A: duplicated call (dedup weight 2) on interface h40.c1.
			for rep := 0; rep < 2; rep++ {
				w.Append(binder.IPCRecord{
					Seq: seq, Time: ct, FromUid: kernel.FirstAppUid,
					Handle: 40, Code: 1, Size: 64,
				})
				seq++
			}
			// uid B: single call on a different interface, every other slot.
			if b%2 == 0 {
				w.Append(binder.IPCRecord{
					Seq: seq, Time: ct, FromUid: kernel.FirstAppUid + 1,
					Handle: 41, Code: 2, Size: 128,
				})
				seq++
			}
		}
		for addMask := 1; addMask < 1<<len(grid); addMask++ {
			var adds []time.Duration
			for b, at := range grid {
				if addMask&(1<<b) != 0 {
					adds = append(adds, at)
				}
			}
			for _, delta := range deltas {
				want := referenceScore(def, &w, adds, delta)
				if got := new(correlator).score(def, &w, adds, delta); !reflect.DeepEqual(got, want) {
					t.Fatalf("calls %05b adds %05b Δ=%v: fresh diverged:\nstreaming: %+v\nreference: %+v",
						callMask, addMask, delta, got, want)
				}
				if got := def.ScoreWithDelta(&w, adds, delta); !reflect.DeepEqual(got, want) {
					t.Fatalf("calls %05b adds %05b Δ=%v: borrowed diverged:\nstreaming: %+v\nreference: %+v",
						callMask, addMask, delta, got, want)
				}
				if got := persistent.score(def, &w, adds, delta); !reflect.DeepEqual(got, want) {
					t.Fatalf("calls %05b adds %05b Δ=%v: persistent diverged", callMask, addMask, delta)
				}
				combos++
			}
		}
	}
	if combos != (1<<len(grid)-1)*(1<<len(grid)-1)*len(deltas) {
		t.Fatalf("enumerated %d combos, want full grid", combos)
	}
}

// TestScoreOrderInvariant pins that scoring is a pure function of the
// window's multiset of records: shuffling the record order (the streaming
// path re-groups via its permutation sort) cannot change the result.
func TestScoreOrderInvariant(t *testing.T) {
	def, windows, addWindows := correlatorWindows(t)
	base := def.ScoreWithDelta(&windows[0], addWindows[0], DefaultDelta)
	rng := rand.New(rand.NewSource(5))
	shuffled := windows[0].Clone()
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(shuffled.Len(), func(i, j int) { swapRows(&shuffled, i, j) })
		if got := def.ScoreWithDelta(&shuffled, addWindows[0], DefaultDelta); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: shuffled window changed the ranking", trial)
		}
	}
}
