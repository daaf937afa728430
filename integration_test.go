package repro

import (
	"testing"

	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/workload"
)

// TestIntegrationQuickstartFlow exercises the README quickstart end to end
// at the paper's full parameters (51,200-entry tables, 4,000/12,000
// defender thresholds): an undefended device falls to the clipboard
// attack and soft-reboots; a defended device identifies and kills the
// attacker with a wide safety margin.
func TestIntegrationQuickstartFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale integration test")
	}

	// Part 1: undefended.
	dev, err := device.Boot(device.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := workload.NewAttacker(dev, evil, "clipboard.addPrimaryClipChangedListener")
	if err != nil {
		t.Fatal(err)
	}
	for dev.SystemServer().Alive() {
		if err := atk.Step(); err != nil {
			break
		}
	}
	if dev.SoftReboots() != 1 {
		t.Fatalf("undefended device: SoftReboots = %d, want 1", dev.SoftReboots())
	}
	if atk.Calls() < 20000 || atk.Calls() > 30000 {
		t.Fatalf("attack took %d calls; expected ≈24,900 for a 51,200 table at 2 refs/call", atk.Calls())
	}

	// Part 2: defended, paper thresholds.
	dev2, err := device.Boot(device.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := defense.New(dev2, defense.Config{})
	if err != nil {
		t.Fatal(err)
	}
	evil2, err := dev2.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	atk2, err := workload.NewAttacker(dev2, evil2, "clipboard.addPrimaryClipChangedListener")
	if err != nil {
		t.Fatal(err)
	}
	for evil2.Running() {
		if err := atk2.Step(); err != nil {
			break
		}
	}
	hist := def.History()
	if len(hist) != 1 {
		t.Fatalf("defended device: %d detections, want 1", len(hist))
	}
	det := hist[0]
	if !det.Recovered || len(det.Killed) != 1 || det.Killed[0] != "com.evil.app" {
		t.Fatalf("detection = %+v", det)
	}
	if dev2.SoftReboots() != 0 {
		t.Fatal("defended device rebooted")
	}
	// The defender acted with most of the table still free.
	peak := dev2.SystemServer().VM().PeakGlobalRefCount()
	if peak > 16000 {
		t.Fatalf("peak JGR %d; the defender should have acted near 12,000+baseline", peak)
	}
	stats := dev2.Stats()
	if stats.SoftReboots != 0 || stats.Services != 104 {
		t.Fatalf("stats = %+v", stats)
	}
}
