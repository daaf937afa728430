package defense

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/trace"
)

// TestDefenderRebootStormRecovery drives the defended device through a
// storm of soft reboots: three consecutive covert-channel attacks (§VI —
// broadcast-receiver JGR pinning leaves no binder evidence, so the
// defender engages but cannot attribute) each exhaust system_server, and
// after every recovery the device must come back to the same benign JGR
// baseline inside Fig. 4's [1000, 3000] band, with the journal showing a
// detection before each reboot.
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
	// The defender is a system service with no journal of its own; give
	// the storm a trace by journaling each engagement.
	def.OnDetection = func(det Detection) {
		dev.Journal().Add(det.EngagedAt, trace.KindDetection, "system_server",
			fmt.Sprintf("killed %v recovered %v", det.Killed, det.Recovered))
	}

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

	// The journal interleaves engagements and reboots: each reboot must be
	// preceded by a detection inside its own round (the defender noticed,
	// engaged, could not attribute the covert channel, and the device went
	// down anyway — the §VI limitation, three times over).
	var reboots, detections []trace.Event
	for _, ev := range dev.Journal().Events() {
		switch ev.Kind {
		case trace.KindReboot:
			reboots = append(reboots, ev)
		case trace.KindDetection:
			detections = append(detections, ev)
		}
	}
	if len(reboots) != rounds {
		t.Fatalf("journal reboots = %d, want %d", len(reboots), rounds)
	}
	if len(detections) < rounds {
		t.Fatalf("journal detections = %d, want >= %d", len(detections), rounds)
	}
	prevReboot := int64(-1)
	for i, rb := range reboots {
		found := false
		for _, det := range detections {
			if int64(det.T) > prevReboot && det.T <= rb.T {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("round %d: no detection between t=%d and reboot at t=%d", i, prevReboot, int64(rb.T))
		}
		prevReboot = int64(rb.T)
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
