package defense_test

import (
	"fmt"

	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/workload"
)

// ExampleNew boots a device, attaches the defender, launches the
// clipboard attack, and prints what the defender did.
func ExampleNew() {
	dev, err := device.Boot(device.Config{Seed: 1})
	if err != nil {
		panic(err)
	}
	def, err := defense.New(dev, defense.Config{AlarmThreshold: 400, EngageThreshold: 1200})
	if err != nil {
		panic(err)
	}
	evil, err := dev.Apps().Install("com.evil.app")
	if err != nil {
		panic(err)
	}
	atk, err := workload.NewAttacker(dev, evil, "clipboard.addPrimaryClipChangedListener")
	if err != nil {
		panic(err)
	}
	for evil.Running() {
		if err := atk.Step(); err != nil {
			break
		}
	}
	det := def.History()[0]
	fmt.Println(det.Victim, det.Killed, det.Recovered, dev.SoftReboots())
	// Output:
	// system_server [com.evil.app] true 0
}
