package defense

import (
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/kernel"
)

// correlateFixture builds a realistic defender window: one flood app and
// one chatty benign app against the clipboard service, read through the
// driver's columnar view and app-uid filtered as the poll loop reads it,
// with the JGR add times captured through the system-server hook exactly
// as the live defender sees them.
func correlateFixture(b *testing.B) (*Defender, *binder.LogColumns, []time.Duration) {
	b.Helper()
	dev, err := device.Boot(device.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	def, err := New(dev, Config{AlarmThreshold: 1 << 20, EngageThreshold: 1 << 21})
	if err != nil {
		b.Fatal(err)
	}
	var adds []time.Duration
	dev.SystemServer().VM().AddJGRHook(func(ev art.JGREvent) {
		if ev.Op == art.OpAdd {
			adds = append(adds, ev.Time)
		}
	})
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		b.Fatal(err)
	}
	client, err := dev.NewClient(evil, "clipboard")
	if err != nil {
		b.Fatal(err)
	}
	benign, err := dev.Apps().Install("com.benign.chat")
	if err != nil {
		b.Fatal(err)
	}
	bclient, err := dev.NewClient(benign, "clipboard")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := client.Register("addPrimaryClipChangedListener"); err != nil {
			b.Fatal(err)
		}
		if i%10 == 0 {
			if err := bclient.Register("addPrimaryClipChangedListener"); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := dev.Driver().FlushLog(); err != nil {
		b.Fatal(err)
	}
	var w binder.LogColumns
	if _, err := dev.Driver().AppendLogColumnsSince(kernel.SystemUid, dev.SystemServer().Pid(), 0, &w); err != nil {
		b.Fatal(err)
	}
	w.Filter(func(i int) bool { return kernel.IsAppUid(w.FromUid[i]) })
	return def, &w, adds
}

// BenchmarkCorrelate measures Algorithm 1's correlation stage on the
// defender's poll path: the per-type difference-array sweep over the
// delay buckets, repeated every poll as the live defender does.
// "stateless" is ScoreWithDelta, which borrows a correlator from the
// engagement store for each call (what the concurrent Fig. 9 sweep
// gets); "incremental" is one correlator kept across iterations, which
// reuses the sorted permutation, difference array and scratch buffers
// across windows without the store's lock. Both score the same columnar
// window.
func BenchmarkCorrelate(b *testing.B) {
	def, w, adds := correlateFixture(b)
	b.Run("stateless", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scores := def.ScoreWithDelta(w, adds, DefaultDelta)
			if len(scores) == 0 {
				b.Fatal("no scores")
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		var c correlator
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scores := c.score(def, w, adds, DefaultDelta)
			if len(scores) == 0 {
				b.Fatal("no scores")
			}
		}
	})
}
