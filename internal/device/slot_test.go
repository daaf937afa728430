package device

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/art"
	"repro/internal/kernel"
)

// slotFingerprint drives a deterministic workload and renders every
// observable surface — dumpsys report plus every kill the kernel
// reports, with its virtual time and reason — so two devices can be
// compared byte-for-byte.
func slotFingerprint(t testing.TB, d *Device, registers int) string {
	t.Helper()
	var kills strings.Builder
	d.Kernel().OnKill(func(p *kernel.Process, reason string) {
		fmt.Fprintf(&kills, "%v %s %s\n", d.Clock().Now(), p.Name(), reason)
	})
	atk, err := d.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.NewClient(atk, "clipboard")
	if err != nil {
		t.Fatal(err)
	}
	ss := d.SystemServer()
	for i := 0; i < registers && ss.Alive(); i++ {
		c.Register("addPrimaryClipChangedListener")
	}
	var sb strings.Builder
	d.DumpState(&sb)
	sb.WriteString(kills.String())
	return sb.String()
}

// TestSlotRecycleEquivalence proves the tentpole property: a device
// recycled in place from a retired trial is byte-identical to a cold
// clone with the same seed, across several consecutive reseeds.
func TestSlotRecycleEquivalence(t *testing.T) {
	cfg := Config{ServerVM: art.Config{MaxGlobalRefs: 51200}}
	slot, err := NewSlot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 42, 7} {
		d, err := slot.Acquire(seed)
		if err != nil {
			t.Fatal(err)
		}
		got := slotFingerprint(t, d, 200)

		ref := boot(t, Config{Seed: seed, ServerVM: art.Config{MaxGlobalRefs: 51200}})
		want := slotFingerprint(t, ref, 200)
		if got != want {
			t.Fatalf("seed %d: recycled device diverges from cold clone:\n--- recycled ---\n%s\n--- clone ---\n%s", seed, got, want)
		}
	}
	st := slot.Stats()
	if st.Clones != 1 || st.Recycles != 3 {
		t.Fatalf("slot stats = %+v, want 1 clone + 3 recycles", st)
	}
}

// TestSlotRecycleAfterSoftReboot recycles a device whose trial drove it
// through JGR exhaustion and a soft reboot — the dirtiest state a trial
// can retire with — and checks the next trial starts byte-identical to a
// cold clone.
func TestSlotRecycleAfterSoftReboot(t *testing.T) {
	cfg := Config{ServerVM: art.Config{MaxGlobalRefs: 2200}}
	slot, err := NewSlot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := slot.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	slotFingerprint(t, d, 5000)
	if d.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1 (trial should exhaust)", d.SoftReboots())
	}

	d2, err := slot.Acquire(9)
	if err != nil {
		t.Fatal(err)
	}
	got := slotFingerprint(t, d2, 100)
	ref := boot(t, Config{Seed: 9, ServerVM: art.Config{MaxGlobalRefs: 2200}})
	want := slotFingerprint(t, ref, 100)
	if got != want {
		t.Fatalf("post-reboot recycle diverges from cold clone:\n--- recycled ---\n%s\n--- clone ---\n%s", got, want)
	}
}

// TestSlotFreshFallback: with clone-boot disabled a slot degrades to
// fresh boots, keeping slot-driven runs comparable to the equivalence
// tests' SetCloneBoot(false) mode.
func TestSlotFreshFallback(t *testing.T) {
	SetCloneBoot(false)
	defer SetCloneBoot(true)
	slot, err := NewSlot(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		d, err := slot.Acquire(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d.BootConfig().Seed != seed {
			t.Fatalf("seed = %d, want %d", d.BootConfig().Seed, seed)
		}
	}
	if st := slot.Stats(); st.Fresh != 2 || st.Clones != 0 || st.Recycles != 0 {
		t.Fatalf("slot stats = %+v, want 2 fresh boots", st)
	}
}

// BenchmarkSlotAcquireRecycle measures the per-trial reseed cost on a
// warm slot — the number to compare against BenchmarkDeviceClone's cold
// clone.
func BenchmarkSlotAcquireRecycle(b *testing.B) {
	slot, err := NewSlot(Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := slot.Acquire(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slot.Acquire(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
