package device

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/art"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/services"
)

// slotFingerprint drives a deterministic workload and renders every
// observable surface — dumpsys report, every kill the kernel reports,
// with its virtual time and reason, each runtime's local-frame pushes
// and frame-pool hits, and /proc/jgre_metrics — so two devices can be
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
	for _, p := range d.Kernel().Processes() {
		if vm := p.VM(); vm != nil && vm.FramePushes() > 0 {
			fmt.Fprintf(&sb, "pid %d %s: %d frame pushes, %d pool hits\n", p.Pid(), p.Name(), vm.FramePushes(), vm.FramePoolHits())
		}
	}
	metrics, err := d.Kernel().ProcFS().Read(MetricsPath, kernel.SystemUid)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(metrics)
	return sb.String()
}

// TestSlotRecycleEquivalence proves the slot's core property: a device
// recycled in place from a retired trial is byte-identical to a cold
// clone with the same seed, across several consecutive reseeds. Every
// Acquire after the first recycles, so it returns the same *Device.
func TestSlotRecycleEquivalence(t *testing.T) {
	cfg := Config{ServerVM: art.Config{MaxGlobalRefs: 51200}}
	slot, err := NewSlot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev *Device
	for i, seed := range []int64{1, 7, 42, 7} {
		d, err := slot.Acquire(seed)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && d != prev {
			t.Fatalf("seed %d: Acquire %d returned a new device; want the previous one recycled", seed, i)
		}
		prev = d
		got := slotFingerprint(t, d, 200)

		ref := boot(t, Config{Seed: seed, ServerVM: art.Config{MaxGlobalRefs: 51200}})
		want := slotFingerprint(t, ref, 200)
		if got != want {
			t.Fatalf("seed %d: recycled device diverges from cold clone:\n--- recycled ---\n%s\n--- clone ---\n%s", seed, got, want)
		}
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
	if d2 != d {
		t.Fatal("Acquire after a soft reboot returned a new device; want the previous one recycled")
	}
	got := slotFingerprint(t, d2, 100)
	ref := boot(t, Config{Seed: 9, ServerVM: art.Config{MaxGlobalRefs: 2200}})
	want := slotFingerprint(t, ref, 100)
	if got != want {
		t.Fatalf("post-reboot recycle diverges from cold clone:\n--- recycled ---\n%s\n--- clone ---\n%s", got, want)
	}
}

// TestSlotFreshFallback: with clone-boot disabled a slot degrades to
// fresh boots — a new device on every Acquire, never the previous one —
// which is the reference slot-driven runs are compared against.
func TestSlotFreshFallback(t *testing.T) {
	SetCloneBoot(false)
	defer SetCloneBoot(true)
	slot, err := NewSlot(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if slot.tmpl != nil {
		t.Fatal("slot pinned a clone template under SetCloneBoot(false)")
	}
	var prev *Device
	for _, seed := range []int64{1, 2, 3} {
		d, err := slot.Acquire(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d == prev {
			t.Fatalf("seed %d: fresh-fallback Acquire returned the previous device", seed)
		}
		if d.BootConfig().Seed != seed {
			t.Fatalf("seed = %d, want %d", d.BootConfig().Seed, seed)
		}
		prev = d
	}
}

// TestSlotRecyclesRand pins the device's generators across a rewind:
// the recycled device hands back the generators its predecessor handed
// out, reseeded in place, and each draws exactly the sequence of a
// fresh rand.New(rand.NewSource(seed)) — on a cold clone, on a recycled
// device, and past the recycled ones when a trial asks for more.
func TestSlotRecyclesRand(t *testing.T) {
	slot, err := NewSlot(Config{})
	if err != nil {
		t.Fatal(err)
	}
	draws := func(r *rand.Rand) [4]int64 {
		return [4]int64{r.Int63(), r.Int63n(1000), int64(r.Intn(3)), r.Int63()}
	}
	var first []*rand.Rand
	for trial, n := range []int{3, 2, 4} {
		d, err := slot.Acquire(int64(trial + 1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			seed := int64(100*trial + i)
			r := d.Rand(seed)
			if trial > 0 && i < len(first) && r != first[i] {
				t.Fatalf("trial %d: generator %d was not taken back from the retired device", trial, i)
			}
			if trial == 0 {
				first = append(first, r)
			}
			if got, want := draws(r), draws(rand.New(rand.NewSource(seed))); got != want {
				t.Fatalf("trial %d: generator %d draws %v, want %v", trial, i, got, want)
			}
		}
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

// BenchmarkRegister prices one attacker registration on the exhaust
// workload's target, catalog.FastestInterfaces(1)[0], sent by a
// services.Client over the attacker's raw proxy to a device on a
// recycled slot whose system_server takes 6,000 JGRs: the app mints a
// token, and system_server materializes a proxy for it and retains it
// with a death link, each taking a JGR. Before the timer starts, the
// slot runs one trial to system_server's abort, so the timed
// registrations run where a fleet's do, on storage a retired trial grew.
// When system_server nears its cap the slot is re-acquired, untimed.
// make bench-smoke holds its allocs/op to max_allocs_per_op in
// BENCH_hotpath.json.
func BenchmarkRegister(b *testing.B) {
	target, ok := catalog.InterfaceByName(catalog.FastestInterfaces(1)[0])
	if !ok {
		b.Fatal("no exploitable interface")
	}
	slot, err := NewSlot(Config{ServerVM: art.Config{MaxGlobalRefs: 6000}})
	if err != nil {
		b.Fatal(err)
	}
	seed := int64(0)
	var c *services.Client
	var server *art.VM
	acquire := func() {
		seed++
		d, err := slot.Acquire(seed)
		if err != nil {
			b.Fatal(err)
		}
		app, err := d.Apps().Install("com.evil.app")
		if err != nil {
			b.Fatal(err)
		}
		if target.Permission != "" {
			if err := d.Permissions().Grant(app.Uid(), target.Permission); err != nil {
				b.Fatal(err)
			}
		}
		if c, err = d.NewClient(app, target.Service); err != nil {
			b.Fatal(err)
		}
		server = d.SystemServer().VM()
	}
	acquire()
	for i := 0; !server.Aborted(); i++ {
		if i == server.MaxGlobal() {
			b.Fatalf("%d registrations did not abort system_server", i)
		}
		c.Register(target.Method)
	}
	acquire()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if server.GlobalRefCount()+2 > server.MaxGlobal() {
			b.StopTimer()
			acquire()
			b.StartTimer()
		}
		if err := c.Register(target.Method); err != nil {
			b.Fatal(err)
		}
	}
}
