package defense

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
)

// TestDefenderRebootStormRecovery drives the defended device through a
// storm of soft reboots: three consecutive covert-channel attacks (§VI —
// broadcast-receiver JGR pinning leaves no binder evidence, so the
// defender engages but cannot attribute) each exhaust system_server, and
// after every recovery the device must come back to the same benign JGR
// baseline inside Fig. 4's [1000, 3000] band, with a detection before
// each reboot.
func TestDefenderRebootStormRecovery(t *testing.T) {
	const rounds = 3
	dev, err := device.Boot(device.Config{Seed: 36, ServerVM: artCfg(2600)})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{AlarmThreshold: 300, EngageThreshold: 900})
	if err != nil {
		t.Fatal(err)
	}
	// Timeline of the storm: when each engagement began and when each
	// soft-reboot recovery completed.
	var detections, reboots []time.Duration
	def.OnDetection = func(det Detection) { detections = append(detections, det.EngagedAt) }
	dev.OnReboot(func(string) { reboots = append(reboots, dev.Clock().Now()) })

	var baselines []int
	for round := 0; round < rounds; round++ {
		app, err := dev.Apps().Install(fmt.Sprintf("com.covert.app%d", round))
		if err != nil {
			t.Fatal(err)
		}
		proc := app.Start()
		limit := dev.SystemServer().VM().MaxGlobal() + 10000
		for i := 0; i < limit && dev.SoftReboots() == round; i++ {
			if err := dev.RegisterBroadcastReceiver(proc); err != nil {
				break // victim aborted mid-registration
			}
		}
		if got := dev.SoftReboots(); got != round+1 {
			t.Fatalf("round %d: soft reboots = %d, want %d", round, got, round+1)
		}
		// Post-recovery baseline: the restarted system_server re-registers
		// its services deterministically.
		baselines = append(baselines, dev.SystemServer().VM().GlobalRefCount())
	}

	// Every round's recovery converges to the same Fig. 4 benign baseline.
	for i, b := range baselines {
		if b < 1000 || b > 3000 {
			t.Errorf("round %d baseline JGR = %d, outside Fig. 4 band [1000, 3000]", i, b)
		}
		if b != baselines[0] {
			t.Errorf("round %d baseline JGR = %d, want %d (identical re-convergence)", i, b, baselines[0])
		}
	}

	// Engagements and reboots interleave: each reboot must be preceded by
	// a detection inside its own round (the defender noticed, engaged,
	// could not attribute the covert channel, and the device went down
	// anyway — the §VI limitation, three times over).
	if len(reboots) != rounds {
		t.Fatalf("reboots = %d, want %d", len(reboots), rounds)
	}
	if len(detections) < rounds {
		t.Fatalf("detections = %d, want >= %d", len(detections), rounds)
	}
	prevReboot := time.Duration(-1)
	for i, rb := range reboots {
		found := false
		for _, det := range detections {
			if det > prevReboot && det <= rb {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("round %d: no detection between t=%d and reboot at t=%d", i, int64(prevReboot), int64(rb))
		}
		prevReboot = rb
	}

	// The engagements themselves must reflect the covert channel: no
	// binder evidence, so no kill ever hit a covert attacker.
	for _, det := range def.History() {
		for _, k := range det.Killed {
			for r := 0; r < rounds; r++ {
				if k == fmt.Sprintf("com.covert.app%d", r) {
					t.Errorf("covert attacker %s was attributed; the channel should be invisible", k)
				}
			}
		}
	}
}
