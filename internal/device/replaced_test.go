// The weak package this test reads reachability through is new in Go
// 1.24, past the module's go line, so the file builds only there.

//go:build go1.24

package device

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/art"
)

// TestSoftRebootDropsReplacedRegistrations runs a soft reboot on a
// recycled slot. The replaced audio instance stays reachable through the
// slot's storage until the next rewind, so it must drop every
// registration it held: afterwards it holds no entry, and the proxy ref
// of one of its registrations is unreachable while the device is still
// in use.
func TestSoftRebootDropsReplacedRegistrations(t *testing.T) {
	slot, err := NewSlot(Config{ServerVM: art.Config{MaxGlobalRefs: 2200}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slot.Acquire(1); err != nil {
		t.Fatal(err)
	}
	d, err := slot.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := d.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.NewClient(atk, "audio")
	if err != nil {
		t.Fatal(err)
	}
	const method = "startWatchingRoutes"
	old, ss := d.Service("audio"), d.SystemServer()
	token := c.NewToken()
	if err := c.RegisterToken(method, token); err != nil {
		t.Fatal(err)
	}
	// Materializing the token again in system_server returns the proxy
	// ref the registration holds.
	held, err := d.Driver().Materialize(ss, token)
	if err != nil {
		t.Fatal(err)
	}
	if !held.Retained() || old.EntryCount(method) != 1 {
		t.Fatalf("registration: ref retained %v, %d entries; want true and 1", held.Retained(), old.EntryCount(method))
	}
	wp := weak.Make(held)
	held = nil
	for i := 0; ss.Alive(); i++ {
		if i == 2200 {
			t.Fatal("2,200 registrations did not abort system_server")
		}
		c.Register(method)
	}
	if d.SoftReboots() != 1 || d.Service("audio") == old {
		t.Fatalf("after the abort: %d soft reboots, audio replaced %v; want 1 and true", d.SoftReboots(), d.Service("audio") != old)
	}
	if n := old.TotalEntries(); n != 0 {
		t.Fatalf("the replaced audio instance holds %d entries, want 0", n)
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a registration of the replaced audio instance is still reachable")
	}
	// The device is still in use: the new instance registers as usual.
	c, err = d.NewClient(atk, "audio")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(method); err != nil || d.Service("audio").EntryCount(method) != 1 {
		t.Fatalf("registering after the reboot: %v, %d entries; want nil and 1", err, d.Service("audio").EntryCount(method))
	}
}
