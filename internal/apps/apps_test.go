package apps

import (
	"errors"
	"testing"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/simclock"
)

type appRig struct {
	clock *simclock.Clock
	k     *kernel.Kernel
	d     *binder.Driver
	perms *permissions.Manager
	mgr   *Manager
}

func newAppRig(t *testing.T) *appRig {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := binder.New(k, binder.Config{})
	perms := permissions.NewManager(catalog.PermissionLevels)
	return &appRig{clock: clock, k: k, d: d, perms: perms, mgr: NewManager(k, perms)}
}

func TestInstallAssignsSequentialUids(t *testing.T) {
	r := newAppRig(t)
	a, err := r.mgr.Install("com.a")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.mgr.Install("com.b")
	if a.Uid() != FirstInstalledUid || b.Uid() != FirstInstalledUid+1 {
		t.Fatalf("uids = %d, %d; want %d, %d", a.Uid(), b.Uid(), FirstInstalledUid, FirstInstalledUid+1)
	}
	if _, err := r.mgr.Install("com.a"); !errors.Is(err, ErrAlreadyInstalled) {
		t.Fatalf("duplicate install error = %v", err)
	}
	if r.mgr.ByPackage("com.a") != a || r.mgr.ByUid(b.Uid()) != b {
		t.Fatal("lookup maps wrong")
	}
	got := r.mgr.Installed()
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Installed = %v", got)
	}
	// A fixed uid takes its place in uid order, and neither install path
	// hands out a uid an app already owns.
	low, err := r.mgr.InstallWithUid("com.low", 1002)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.InstallWithUid("com.c", b.Uid()); err == nil {
		t.Fatal("InstallWithUid reused a taken uid")
	}
	if _, err := r.mgr.InstallWithUid("com.c", FirstInstalledUid+2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.Install("com.d"); err == nil {
		t.Fatal("Install reused a taken uid")
	}
	got = r.mgr.Installed()
	if len(got) != 4 || got[0] != low || got[1] != a || got[2] != b || got[3].Package() != "com.c" {
		t.Fatalf("Installed = %v, want uid order", got)
	}
	if r.mgr.ByUid(1002) != low || r.mgr.ByUid(FirstInstalledUid+3) != nil || r.mgr.ByPackage("com.d") != nil {
		t.Fatal("lookup after a rejected install wrong")
	}
}

func TestInstallGrantsPermissions(t *testing.T) {
	r := newAppRig(t)
	a, err := r.mgr.Install("com.phone.reader", "READ_PHONE_STATE", "WAKE_LOCK")
	if err != nil {
		t.Fatal(err)
	}
	if !r.perms.Check(a.Uid(), "READ_PHONE_STATE") || !r.perms.Check(a.Uid(), "WAKE_LOCK") {
		t.Fatal("requested permissions not granted")
	}
	// Signature permissions cannot be requested by third-party installs.
	if _, err := r.mgr.Install("com.sig", "NOT_A_DEFINED_PERMISSION"); err == nil {
		t.Fatal("signature-level grant succeeded")
	}
}

func TestStartStopRestart(t *testing.T) {
	r := newAppRig(t)
	a, _ := r.mgr.Install("com.a")
	if a.Running() {
		t.Fatal("app running before Start")
	}
	p1 := a.Start()
	if !a.Running() || a.Proc() != p1 {
		t.Fatal("Start did not produce a live process")
	}
	if again := a.Start(); again != p1 {
		t.Fatal("Start respawned a live app")
	}
	a.ForceStop("defender")
	if a.Running() {
		t.Fatal("ForceStop left the app running")
	}
	p2 := a.Start()
	if p2 == p1 || !a.Running() {
		t.Fatal("restart did not spawn a fresh process")
	}
	if p2.Uid() != a.Uid() {
		t.Fatal("restarted process has wrong uid")
	}
}

func TestBackgroundForeground(t *testing.T) {
	r := newAppRig(t)
	a, _ := r.mgr.Install("com.a")
	p := a.Start()
	a.SetBackground()
	if p.OomScoreAdj() != kernel.CachedAppMinAdj {
		t.Fatalf("adj = %d, want cached", p.OomScoreAdj())
	}
	a.SetForeground()
	if p.OomScoreAdj() != kernel.ForegroundAppAdj {
		t.Fatalf("adj = %d, want foreground", p.OomScoreAdj())
	}
}

func TestAppServiceRetainsUntilCallerDies(t *testing.T) {
	r := newAppRig(t)
	pico, _ := r.mgr.Install("com.svox.pico")
	attacker, _ := r.mgr.Install("com.evil")

	rows := catalog.PrebuiltAppInterfaces()[:1] // PicoService.setCallback()
	svc, err := NewAppService(pico, r.d, r.clock, rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	ap := attacker.Start()
	ref, err := r.d.Materialize(ap, svc.Stub())
	if err != nil {
		t.Fatal(err)
	}
	code, ok := svc.Code("setCallback")
	if !ok {
		t.Fatal("setCallback code missing")
	}
	base := pico.Proc().VM().GlobalRefCount()
	for i := 0; i < 8; i++ {
		data := binder.NewParcel()
		data.WriteStrongBinder(r.d.NewLocalBinder(ap, "android.os.Binder", nil))
		if err := ref.Binder().Transact(code, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.EntryCount("setCallback"); got != 8 {
		t.Fatalf("entries = %d, want 8", got)
	}
	pico.Proc().VM().GC()
	if got := pico.Proc().VM().GlobalRefCount(); got <= base {
		t.Fatal("no retained JGR growth in the app process")
	}
	// Caller exits → everything released (§IV-D).
	attacker.ForceStop("exit")
	if got := svc.EntryCount("setCallback"); got != 0 {
		t.Fatalf("entries after caller death = %d, want 0", got)
	}
}

func TestAppServiceExhaustionCrashesApp(t *testing.T) {
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := binder.New(k, binder.Config{})
	perms := permissions.NewManager(nil)
	mgr := NewManager(k, perms)

	victim, _ := mgr.Install("com.svox.pico")
	// Spawn the victim with a tiny JGR cap for a fast test.
	victim.proc = k.Spawn(kernel.SpawnConfig{Name: victim.pkg, Uid: victim.uid, VM: artSmall()})
	attacker, _ := mgr.Install("com.evil")

	rows := catalog.PrebuiltAppInterfaces()[:1]
	svc, err := NewAppService(victim, d, clock, rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	ap := attacker.Start()
	ref, _ := d.Materialize(ap, svc.Stub())
	code, _ := svc.Code("setCallback")
	for i := 0; i < 200 && victim.Running(); i++ {
		data := binder.NewParcel()
		data.WriteStrongBinder(d.NewLocalBinder(ap, "android.os.Binder", nil))
		ref.Binder().Transact(code, data, nil)
	}
	if victim.Running() {
		t.Fatal("victim app survived JGRE attack")
	}
	// App (not system_server) death: no soft reboot.
	if k.SoftReboots() != 0 {
		t.Fatalf("SoftReboots = %d, want 0", k.SoftReboots())
	}
}

func TestMethodNameParsing(t *testing.T) {
	cases := map[string][2]string{
		"PicoService.setCallback()":    {"PicoService", "setCallback"},
		"GattService.registerServer()": {"GattService", "registerServer"},
		"IMainService.a()":             {"IMainService", "a"},
		"bare":                         {"bare", "bare"},
	}
	for in, want := range cases {
		if got := serviceClassOf(in); got != want[0] {
			t.Errorf("serviceClassOf(%q) = %q, want %q", in, got, want[0])
		}
		if got := methodNameOf(in); got != want[1] {
			t.Errorf("methodNameOf(%q) = %q, want %q", in, got, want[1])
		}
	}
}

// artSmall returns a tiny-JGR runtime config for fast exhaustion tests.
func artSmall() art.Config { return art.Config{MaxGlobalRefs: 64} }
