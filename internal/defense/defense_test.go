package defense

import (
	"strings"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/kernel"
	"repro/internal/workload"
)

// defRig boots a device with a defender and a benign population.
type defRig struct {
	dev   *device.Device
	def   *Defender
	sched *workload.Scheduler
}

func newDefRig(t *testing.T, cfg Config, benign int) *defRig {
	t.Helper()
	dev, err := device.Boot(device.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := workload.NewScheduler(dev)
	if benign > 0 {
		if _, err := workload.Population(dev, sched, benign, 7, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return &defRig{dev: dev, def: def, sched: sched}
}

// smallCfg scales the thresholds down so tests run quickly while keeping
// the alarm/engage ratio of the paper.
func smallCfg() Config {
	return Config{AlarmThreshold: 400, EngageThreshold: 1200}
}

// TestNewAttachesToSystemServer checks what attaching a defender does to
// a booted device: system_server is monitored and the binder driver logs
// IPC.
func TestNewAttachesToSystemServer(t *testing.T) {
	dev, err := device.Boot(device.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !def.Monitored(dev.SystemServer().Pid()) {
		t.Fatal("defender not attached to system_server")
	}
	if !dev.Driver().LoggingEnabled() {
		t.Fatal("IPC logging not enabled")
	}
}

func TestDefenderStopsSingleAttacker(t *testing.T) {
	r := newDefRig(t, smallCfg(), 10)
	evil, err := r.dev.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := workload.NewAttacker(r.dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	r.sched.Add(atk)

	r.sched.Run(func() bool { return len(r.def.History()) > 0 }, 200000)

	hist := r.def.History()
	if len(hist) == 0 {
		t.Fatal("defender never engaged")
	}
	det := hist[0]
	if det.Victim != kernel.SystemServerName {
		t.Fatalf("victim = %s, want system_server", det.Victim)
	}
	if len(det.Scores) == 0 || det.Scores[0].Package != "com.evil.app" {
		t.Fatalf("top score = %+v, want com.evil.app", det.Scores)
	}
	if len(det.Killed) == 0 || det.Killed[0] != "com.evil.app" {
		t.Fatalf("killed = %v, want attacker first", det.Killed)
	}
	if !det.Recovered {
		t.Fatal("victim did not recover")
	}
	if evil.Running() {
		t.Fatal("attacker still running")
	}
	// The device never soft-rebooted: the defense beat the exhaustion.
	if r.dev.SoftReboots() != 0 {
		t.Fatalf("SoftReboots = %d, want 0", r.dev.SoftReboots())
	}
	// The attacker's score dwarfs any benign app's.
	if len(det.Scores) > 1 && det.Scores[0].Score < 4*det.Scores[1].Score {
		t.Fatalf("attacker score %d not clearly above benign %d", det.Scores[0].Score, det.Scores[1].Score)
	}
}

func TestDefenderSparesBenignApps(t *testing.T) {
	r := newDefRig(t, smallCfg(), 10)
	evil, _ := r.dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(r.dev, evil, "clipboard.addPrimaryClipChangedListener")
	if err != nil {
		t.Fatal(err)
	}
	r.sched.Add(atk)
	r.sched.Run(func() bool { return len(r.def.History()) > 0 }, 200000)

	hist := r.def.History()
	if len(hist) == 0 {
		t.Fatal("defender never engaged")
	}
	for _, pkg := range hist[0].Killed {
		if pkg != "com.evil.app" {
			t.Fatalf("defender killed benign app %s", pkg)
		}
	}
}

func TestDefenderDetectsColludingApps(t *testing.T) {
	r := newDefRig(t, smallCfg(), 6)
	targets := []string{
		"audio.startWatchingRoutes",
		"clipboard.addPrimaryClipChangedListener",
		"midi.registerListener",
		"wifi.acquireWifiLock",
	}
	var colluders []string
	for i, tgt := range targets {
		app, err := r.dev.Apps().Install("com.collude.app" + string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		colluders = append(colluders, app.Package())
		atk, err := workload.NewAttacker(r.dev, app, tgt)
		if err != nil {
			t.Fatal(err)
		}
		r.sched.Add(atk)
	}
	// A chatty benign bystander (Fig. 9's fifth app).
	chattyApp, _ := r.dev.Apps().Install("com.chatty.app")
	chatty, err := workload.NewChattyApp(r.dev, chattyApp, 11)
	if err != nil {
		t.Fatal(err)
	}
	r.sched.Add(chatty)

	r.sched.Run(func() bool { return len(r.def.History()) > 0 }, 400000)
	hist := r.def.History()
	if len(hist) == 0 {
		t.Fatal("defender never engaged")
	}
	det := hist[0]
	if len(det.Scores) < 4 {
		t.Fatalf("only %d scored apps", len(det.Scores))
	}
	// The four colluders outrank the chatty benign app (Fig. 9).
	topFour := map[string]bool{}
	for _, s := range det.Scores[:4] {
		topFour[s.Package] = true
	}
	for _, pkg := range colluders {
		if !topFour[pkg] {
			t.Errorf("colluder %s not in top four (scores: %+v)", pkg, det.Scores[:4])
		}
	}
	if topFour["com.chatty.app"] {
		t.Error("chatty benign app ranked among the colluders")
	}
	if chatty.Calls() == 0 {
		t.Error("chatty bystander never ran")
	}
	// Recovery killed colluders, not the bystander.
	for _, pkg := range det.Killed {
		if pkg == "com.chatty.app" {
			t.Error("defender killed the chatty benign app")
		}
	}
	if !det.Recovered {
		t.Error("victim did not recover")
	}
}

func TestDefenderProtectsAppService(t *testing.T) {
	dev, err := device.Boot(device.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	pico := dev.Apps().ByPackage("com.svox.pico")
	if pico == nil || !def.Monitored(pico.Proc().Pid()) {
		t.Fatal("pico app service not monitored")
	}
	evil, _ := dev.Apps().Install("com.evil.app")
	row := catalog.PrebuiltAppInterfaces()[0]
	atk, err := workload.NewAppAttacker(dev, evil, row)
	if err != nil {
		t.Fatal(err)
	}
	sched := workload.NewScheduler(dev)
	sched.Add(atk)
	sched.Run(func() bool { return len(def.History()) > 0 }, 200000)
	hist := def.History()
	if len(hist) == 0 {
		t.Fatal("defender never engaged for the app victim")
	}
	if hist[0].Victim != "com.svox.pico" {
		t.Fatalf("victim = %s, want com.svox.pico", hist[0].Victim)
	}
	if len(hist[0].Killed) == 0 || hist[0].Killed[0] != "com.evil.app" {
		t.Fatalf("killed = %v", hist[0].Killed)
	}
	if pico.Running() == false {
		t.Fatal("victim app crashed despite the defense")
	}
}

func TestDefenderReattachesAfterReboot(t *testing.T) {
	// With a huge engage threshold the defender stays passive and the
	// attack reboots the device; the defender must re-attach to the new
	// system_server.
	dev, err := device.Boot(device.Config{Seed: 5, ServerVM: artCfg(2600)})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(dev, Config{AlarmThreshold: 100000, EngageThreshold: 200000})
	if err != nil {
		t.Fatal(err)
	}
	oldPid := dev.SystemServer().Pid()
	evil, _ := dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000 && dev.SoftReboots() == 0; i++ {
		if err := atk.Step(); err != nil {
			break
		}
	}
	if dev.SoftReboots() != 1 {
		t.Fatal("attack should have rebooted the passive device")
	}
	if def.Monitored(oldPid) {
		t.Fatal("stale monitor on dead system_server")
	}
	if !def.Monitored(dev.SystemServer().Pid()) {
		t.Fatal("defender did not re-attach after reboot")
	}
}

func TestScoreEmptyInputs(t *testing.T) {
	r := newDefRig(t, smallCfg(), 0)
	if got := r.def.ScoreWithDelta(&binder.LogColumns{}, nil, DefaultDelta); got != nil {
		t.Fatalf("ScoreWithDelta(empty, nil) = %v, want nil", got)
	}
}

func TestAverageDeltaNearPaperValue(t *testing.T) {
	avg := AverageDelta()
	if avg < 1200*time.Microsecond || avg > 2400*time.Microsecond {
		t.Fatalf("AverageDelta = %v, want ≈1.8 ms", avg)
	}
}

func TestAnalysisChargesVirtualTime(t *testing.T) {
	r := newDefRig(t, smallCfg(), 4)
	evil, _ := r.dev.Apps().Install("com.evil.app")
	atk, err := workload.NewAttacker(r.dev, evil, "audio.startWatchingRoutes")
	if err != nil {
		t.Fatal(err)
	}
	r.sched.Add(atk)
	r.sched.Run(func() bool { return len(r.def.History()) > 0 }, 200000)
	hist := r.def.History()
	if len(hist) == 0 {
		t.Fatal("no detection")
	}
	if hist[0].AnalysisTime <= 0 {
		t.Fatal("analysis consumed no virtual time")
	}
	if hist[0].AnalysisTime > 10*time.Second {
		t.Fatalf("analysis time %v implausibly large", hist[0].AnalysisTime)
	}
}

// artCfg builds a small-cap runtime config.
func artCfg(max int) art.Config { return art.Config{MaxGlobalRefs: max} }

func TestFormatDetection(t *testing.T) {
	det := Detection{
		Victim: "system_server", VictimPid: 2,
		EngagedAt: 18 * time.Second, Records: 6000, AnalysisTime: 400 * time.Millisecond,
		Scores: []AppScore{
			{Uid: 10061, Package: "com.evil.app", Score: 6100},
			{Uid: 10060, Package: "com.benign.app", Score: 120},
		},
		Killed: []string{"com.evil.app"}, Recovered: true,
	}
	out := FormatDetection(det)
	for _, want := range []string{"system_server", "com.evil.app", "6100", "recovered: true", "6000 IPC records"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
