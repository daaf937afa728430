package chaos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/workload"
)

func bootT(t *testing.T, seed int64) *device.Device {
	t.Helper()
	dev, err := device.Boot(device.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestEngineDeterminism: equal seeds give identical fault schedules —
// same fault ledger and the same set of surviving apps — regardless of
// how many times the run repeats.
func TestEngineDeterminism(t *testing.T) {
	run := func() (Stats, []string) {
		dev := bootT(t, 5)
		sched := workload.NewScheduler(dev)
		if _, err := workload.Population(dev, sched, 8, 1, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		eng := New(dev, sched, Config{
			Seed:             9,
			CrashEvery:       100 * time.Millisecond,
			CrashApps:        true,
			CrashAppServices: true,
		}, nil)
		sched.Run(func() bool { return dev.Clock().Now() >= time.Second }, 200000)
		var alive []string
		for _, a := range dev.Apps().Installed() {
			if a.Running() {
				alive = append(alive, a.Package())
			}
		}
		return eng.Stats(), alive
	}
	s1, a1 := run()
	s2, a2 := run()
	if s1 != s2 {
		t.Fatalf("fault ledgers diverged: %+v vs %+v", s1, s2)
	}
	if s1.Crashes == 0 {
		t.Fatal("no crashes injected")
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("survivor sets diverged:\n %v\n %v", a1, a2)
	}
}

// TestZeroConfigInert: a zero-chaos engine plus an idle supervisor must
// not perturb the workload — same transaction count as a run without
// them. This is the envelope-preservation guarantee the scenario
// registry relies on.
func TestZeroConfigInert(t *testing.T) {
	run := func(withChaos bool) uint64 {
		dev := bootT(t, 6)
		sched := workload.NewScheduler(dev)
		if _, err := workload.Population(dev, sched, 10, 2, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if withChaos {
			New(dev, sched, Config{}, nil)
			NewSupervisor(dev, sched, SupervisorConfig{})
		}
		sched.Run(func() bool { return dev.Clock().Now() >= 2*time.Second }, 200000)
		return dev.Stats().Transactions
	}
	plain, instrumented := run(false), run(true)
	if plain != instrumented {
		t.Fatalf("zero-chaos run diverged: %d vs %d transactions", plain, instrumented)
	}
}

// TestSupervisorRestartsCrashedHost: a chaos-crashed dedicated service
// host comes back as a new process after the backoff.
func TestSupervisorRestartsCrashedHost(t *testing.T) {
	dev := bootT(t, 3)
	hosts := dev.HostNames()
	if len(hosts) == 0 {
		t.Skip("device has no dedicated hosts")
	}
	name := hosts[0]
	oldPid := dev.Host(name).Pid()
	sched := workload.NewScheduler(dev)
	sup := NewSupervisor(dev, sched, SupervisorConfig{InitialBackoff: 100 * time.Millisecond})
	sched.At(10*time.Millisecond, func() {
		dev.Kernel().Kill(dev.Host(name).Pid(), ReasonCrash)
	})
	sched.Run(func() bool { return false }, 1000)

	if p := dev.Host(name); p == nil || !p.Alive() {
		t.Fatalf("host %s not restarted", name)
	}
	if dev.Host(name).Pid() == oldPid {
		t.Fatal("restart reused the dead pid")
	}
	st := sup.Stats()
	if st.Restarts != 1 || st.Failures != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want exactly one clean restart", st)
	}
	if st.TotalDowntime != 100*time.Millisecond {
		t.Fatalf("TotalDowntime = %v, want the 100ms backoff", st.TotalDowntime)
	}
}

// TestSupervisorBackoffDoubling: crash loops double the per-target
// backoff up to the cap; surviving past StableAfter resets it.
func TestSupervisorBackoffDoubling(t *testing.T) {
	dev := bootT(t, 3)
	hosts := dev.HostNames()
	if len(hosts) == 0 {
		t.Skip("device has no dedicated hosts")
	}
	name := hosts[0]
	sched := workload.NewScheduler(dev)
	sup := NewSupervisor(dev, sched, SupervisorConfig{
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     400 * time.Millisecond,
		StableAfter:    30 * time.Second,
	})
	kill := func(at time.Duration) {
		sched.At(at, func() {
			if p := dev.Host(name); p != nil && p.Alive() {
				dev.Kernel().Kill(p.Pid(), ReasonCrash)
			} else {
				t.Errorf("kill at %v: host already down", at)
			}
		})
	}
	// restarts land at 110ms (+100), 350ms (+200), 800ms (+400), then the
	// cap holds: 1300ms (+400).
	kill(10 * time.Millisecond)
	kill(150 * time.Millisecond)
	kill(400 * time.Millisecond)
	kill(900 * time.Millisecond)
	sched.Run(func() bool { return false }, 1000)

	st := sup.Stats()
	if st.Restarts != 4 {
		t.Fatalf("Restarts = %d, want 4 (stats %+v)", st.Restarts, st)
	}
	if st.LastBackoff != 400*time.Millisecond {
		t.Fatalf("LastBackoff = %v, want the 400ms cap", st.LastBackoff)
	}
	if !dev.Host(name).Alive() {
		t.Fatal("host not up after final restart")
	}

	// A target that stayed up past StableAfter re-enters at the initial
	// backoff.
	dev2 := bootT(t, 3)
	sched2 := workload.NewScheduler(dev2)
	sup2 := NewSupervisor(dev2, sched2, SupervisorConfig{
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     400 * time.Millisecond,
		StableAfter:    100 * time.Millisecond,
	})
	k2 := func(at time.Duration) {
		sched2.At(at, func() { dev2.Kernel().Kill(dev2.Host(name).Pid(), ReasonCrash) })
	}
	k2(10 * time.Millisecond)  // restart at 110 (+100)
	k2(150 * time.Millisecond) // 40ms uptime < stable: restart at 350 (+200)
	k2(600 * time.Millisecond) // 250ms uptime > stable: reset, restart at 700 (+100)
	sched2.Run(func() bool { return false }, 1000)
	if st := sup2.Stats(); st.Restarts != 3 || st.LastBackoff != 100*time.Millisecond {
		t.Fatalf("stats = %+v, want 3 restarts ending at the reset 100ms backoff", st)
	}
}

// TestSupervisorAbort: a cancelled run abandons pending restarts
// instead of touching the device mid-teardown.
func TestSupervisorAbort(t *testing.T) {
	dev := bootT(t, 3)
	hosts := dev.HostNames()
	if len(hosts) == 0 {
		t.Skip("device has no dedicated hosts")
	}
	name := hosts[0]
	sched := workload.NewScheduler(dev)
	sup := NewSupervisor(dev, sched, SupervisorConfig{InitialBackoff: 100 * time.Millisecond})
	sup.SetAbort(func() bool { return true })
	sched.At(10*time.Millisecond, func() {
		dev.Kernel().Kill(dev.Host(name).Pid(), ReasonCrash)
	})
	sched.Run(func() bool { return false }, 1000)
	if p := dev.Host(name); p != nil && p.Alive() {
		t.Fatal("aborted supervisor restarted the host anyway")
	}
	if st := sup.Stats(); st.Restarts != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want no restarts and drained pending", st)
	}
}

// fakeLifecycle records bounce calls with their virtual times.
type fakeLifecycle struct {
	dev      *device.Device
	kills    []time.Duration
	restores []time.Duration
}

func (f *fakeLifecycle) Kill() { f.kills = append(f.kills, f.dev.Clock().Now()) }
func (f *fakeLifecycle) Restore() error {
	f.restores = append(f.restores, f.dev.Clock().Now())
	return nil
}

// TestDefenderBounceSchedule: the defender actor kills on its cadence,
// restores after the downtime, and MaxFaults bounds the total.
func TestDefenderBounceSchedule(t *testing.T) {
	dev := bootT(t, 4)
	sched := workload.NewScheduler(dev)
	lc := &fakeLifecycle{dev: dev}
	eng := New(dev, sched, Config{
		DefenderKillEvery: 300 * time.Millisecond,
		DefenderDowntime:  100 * time.Millisecond,
		MaxFaults:         2,
	}, lc)
	sched.Run(func() bool { return dev.Clock().Now() >= 2*time.Second }, 1000)

	wantKills := []time.Duration{300 * time.Millisecond, 600 * time.Millisecond}
	wantRestores := []time.Duration{400 * time.Millisecond, 700 * time.Millisecond}
	if !reflect.DeepEqual(lc.kills, wantKills) {
		t.Fatalf("kills at %v, want %v", lc.kills, wantKills)
	}
	if !reflect.DeepEqual(lc.restores, wantRestores) {
		t.Fatalf("restores at %v, want %v", lc.restores, wantRestores)
	}
	if st := eng.Stats(); st.DefenderKills != 2 || st.DefenderRestores != 2 {
		t.Fatalf("stats = %+v, want 2 bounces", st)
	}
}

// TestRebootAxis: the one-shot soft reboot fires, the device recovers
// by itself, and the supervisor stays out of the way (soft-reboot
// casualties are not supervised restarts).
func TestRebootAxis(t *testing.T) {
	dev := bootT(t, 8)
	sched := workload.NewScheduler(dev)
	if _, err := workload.Population(dev, sched, 5, 1, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(dev, sched, SupervisorConfig{InitialBackoff: 50 * time.Millisecond})
	eng := New(dev, sched, Config{RebootAt: 200 * time.Millisecond}, nil)
	sched.Run(func() bool { return dev.Clock().Now() >= time.Second }, 100000)

	if st := eng.Stats(); st.Reboots != 1 {
		t.Fatalf("Reboots = %d, want 1", st.Reboots)
	}
	if n := dev.SoftReboots(); n != 1 {
		t.Fatalf("device survived %d soft reboots, want 1", n)
	}
	if ss := dev.SystemServer(); ss == nil || !ss.Alive() {
		t.Fatal("system_server not back after soft reboot")
	}
	if st := sup.Stats(); st.Restarts != 0 {
		t.Fatalf("supervisor restarted %d soft-reboot casualties, want 0", st.Restarts)
	}
}
