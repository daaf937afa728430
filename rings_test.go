package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ringOwners maps every non-test file that builds a bounded trace.Ring
// to a check that overflows that ring by over entries and returns the
// drop count its public reader reports.
var ringOwners = map[string]func(t *testing.T, over int) uint64{
	"internal/trace/trace.go":       journalDrops,
	"internal/trace/span.go":        recorderDrops,
	"internal/binder/driver.go":     ipcLogDrops,
	"internal/telemetry/sampler.go": samplerDrops,
}

// newRingCall matches a trace.NewRing call; the definition's type
// parameter list ("[T any]") does not match.
var newRingCall = regexp.MustCompile(`\bNewRing\[\w+\]\(`)

// TestEveryRingReportsDrops holds the rule that no bounded buffer loses a
// record silently. It fails when a non-test file builds a trace.Ring that
// ringOwners does not list, and, for each listed ring, when overflowing it
// does not show up in its public reader.
func TestEveryRingReportsDrops(t *testing.T) {
	var got []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if newRingCall.Match(src) {
			got = append(got, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for file := range ringOwners {
		want = append(want, file)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("files calling trace.NewRing = %q, want %q: give a new ring a public drop reader and list it in ringOwners", got, want)
	}
	const over = 5
	for _, file := range want {
		t.Run(filepath.Base(file), func(t *testing.T) {
			if n := ringOwners[file](t, over); n != over {
				t.Errorf("overflowing the ring by %d reports %d dropped", over, n)
			}
		})
	}
}

func bootDevice(t *testing.T, cfg device.Config) *device.Device {
	t.Helper()
	dev, err := device.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// journalDrops fills the device journal past its bound and reads
// Stats().TraceDropped.
func journalDrops(t *testing.T, over int) uint64 {
	dev := bootDevice(t, device.Config{Seed: 1})
	j := dev.Journal()
	for range j.Cap() - j.Len() + over {
		j.Add(0, trace.KindNote, "filler", "overflow")
	}
	return uint64(dev.Stats().TraceDropped)
}

// recorderDrops fills a small flight recorder past its bound and reads
// Stats().TraceSpanDrops.
func recorderDrops(t *testing.T, over int) uint64 {
	const capacity = 16
	dev := bootDevice(t, device.Config{Seed: 1, Trace: trace.Config{Enabled: true, Capacity: capacity}})
	rec := dev.Recorder()
	for range capacity - rec.Len() + over {
		rec.Emit(trace.SpanRecord{Kind: trace.SpanTransact})
	}
	return dev.Stats().TraceSpanDrops
}

// ipcLogDrops logs more transactions than a bounded pending IPC log holds,
// with no reader flushing it, and reads Stats().IPCLogRingDropped.
func ipcLogDrops(t *testing.T, over int) uint64 {
	const capacity = 8
	dev := bootDevice(t, device.Config{Seed: 1, Faults: faults.Config{RingCapacity: capacity}})
	if err := dev.Driver().EnableIPCLogging(); err != nil {
		t.Fatal(err)
	}
	app, err := dev.Apps().Install("com.example.caller")
	if err != nil {
		t.Fatal(err)
	}
	client, err := dev.NewClient(app, "clipboard")
	if err != nil {
		t.Fatal(err)
	}
	for range capacity + over {
		if err := client.Register("addPrimaryClipChangedListener"); err != nil {
			t.Fatal(err)
		}
	}
	if n := dev.Driver().LogStats().Logged; n != uint64(capacity+over) {
		t.Fatalf("%d calls logged %d records, want one each", capacity+over, n)
	}
	return dev.Stats().IPCLogRingDropped
}

// samplerDrops samples one series more often than its ring holds and
// reads Sampler.Dropped.
func samplerDrops(t *testing.T, over int) uint64 {
	const capacity = 4
	reg := telemetry.NewRegistry()
	reg.Gauge("jgre_test_gauge", "A gauge to sample.")
	s := telemetry.NewSampler(reg, time.Second, capacity)
	s.Track("jgre_test_gauge")
	for i := range capacity + over {
		s.MaybeSample(time.Duration(i) * time.Second)
	}
	return s.Dropped()
}
