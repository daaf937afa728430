package services

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/simclock"
)

// svcRig wires a single catalogued service with one app process.
type svcRig struct {
	clock  *simclock.Clock
	k      *kernel.Kernel
	d      *binder.Driver
	sm     *binder.ServiceManager
	perms  *permissions.Manager
	server *kernel.Process
	app    *kernel.Process
	svc    *Service
}

func newSvcRig(t testing.TB, serviceName string, vm art.Config) *svcRig {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := binder.New(k, binder.Config{})
	sm := binder.NewServiceManager(d)
	perms := permissions.NewManager(catalog.PermissionLevels)
	server := k.Spawn(kernel.SpawnConfig{
		Name: kernel.SystemServerName, Uid: kernel.SystemUid,
		OomScoreAdj: kernel.SystemAdj, VM: vm,
	})
	app := k.Spawn(kernel.SpawnConfig{Name: "com.evil.app", Uid: 10061})

	meta, ok := catalog.ServiceByName(serviceName)
	if !ok {
		t.Fatalf("unknown service %s", serviceName)
	}
	svc, err := New(Config{
		Meta:   meta,
		Host:   server,
		Driver: d,
		Clock:  clock,
		Perms:  perms,
		Seed:   1,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}
	return &svcRig{clock: clock, k: k, d: d, sm: sm, perms: perms, server: server, app: app, svc: svc}
}

func (r *svcRig) client(t testing.TB, pkg string) *Client {
	t.Helper()
	c, err := NewClient(r.sm, r.d, r.app, pkg, r.svc.Name())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegisterRetainsJGR(t *testing.T) {
	r := newSvcRig(t, "clipboard", art.Config{})
	c := r.client(t, "com.evil.app")
	base := r.server.VM().GlobalRefCount()
	for i := 0; i < 5; i++ {
		if err := c.Register("addPrimaryClipChangedListener"); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.svc.EntryCount("addPrimaryClipChangedListener"); got != 5 {
		t.Fatalf("EntryCount = %d, want 5", got)
	}
	r.server.VM().GC()
	// Each registration pins 2 refs (proxy + death recipient).
	if got := r.server.VM().GlobalRefCount(); got != base+10 {
		t.Fatalf("server JGR = %d, want %d", got, base+10)
	}
}

func TestUnregisterReleases(t *testing.T) {
	r := newSvcRig(t, "clipboard", art.Config{})
	c := r.client(t, "com.evil.app")
	base := r.server.VM().GlobalRefCount()
	for i := 0; i < 3; i++ {
		if err := c.Register("addPrimaryClipChangedListener"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := c.Unregister("addPrimaryClipChangedListener"); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.svc.EntryCount("addPrimaryClipChangedListener"); got != 0 {
		t.Fatalf("EntryCount = %d, want 0", got)
	}
	if got := r.server.VM().GlobalRefCount(); got != base {
		t.Fatalf("server JGR = %d, want %d", got, base)
	}
	if err := c.Unregister("addPrimaryClipChangedListener"); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("extra unregister error = %v, want ErrNoEntry", err)
	}
}

func TestCallerDeathReleasesEntries(t *testing.T) {
	r := newSvcRig(t, "clipboard", art.Config{})
	c := r.client(t, "com.evil.app")
	for i := 0; i < 4; i++ {
		if err := c.Register("addPrimaryClipChangedListener"); err != nil {
			t.Fatal(err)
		}
	}
	r.k.Kill(r.app.Pid(), "exit")
	if got := r.svc.EntryCount("addPrimaryClipChangedListener"); got != 0 {
		t.Fatalf("entries after caller death = %d, want 0", got)
	}
	if got := r.server.VM().GlobalRefCount(); got != 0 {
		t.Fatalf("server JGR after caller death = %d, want 0", got)
	}
}

func TestPermissionEnforced(t *testing.T) {
	r := newSvcRig(t, "telephony.registry", art.Config{})
	c := r.client(t, "com.evil.app")
	err := c.Register("listenForSubscriber")
	var de *permissions.DeniedError
	if !errors.As(err, &de) {
		t.Fatalf("ungranted call error = %v, want DeniedError", err)
	}
	if r.svc.EntryCount("listenForSubscriber") != 0 {
		t.Fatal("denied call still registered an entry")
	}
	if err := r.perms.Grant(r.app.Uid(), "READ_PHONE_STATE"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("listenForSubscriber"); err != nil {
		t.Fatalf("granted call failed: %v", err)
	}
}

func TestPerProcessGuardHolds(t *testing.T) {
	r := newSvcRig(t, "input", art.Config{})
	c := r.client(t, "com.evil.app")
	// registerInputDevicesChangedListener has GuardLimit 1, keyed on the
	// kernel-reported pid — unspoofable.
	if err := c.Register("registerInputDevicesChangedListener"); err != nil {
		t.Fatal(err)
	}
	err := c.Register("registerInputDevicesChangedListener")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second register error = %v, want ErrQuotaExceeded", err)
	}
	// Spoofing the package string does not help: the guard keys on pid.
	if err := c.RegisterAs("registerInputDevicesChangedListener", "android", c.NewToken()); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("spoofed register error = %v, want ErrQuotaExceeded", err)
	}
	if got := r.svc.EntryCount("registerInputDevicesChangedListener"); got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
}

func TestEnqueueToastQuotaAndBypass(t *testing.T) {
	r := newSvcRig(t, "notification", art.Config{})
	c := r.client(t, "com.evil.app")
	spec, _ := catalog.InterfaceByName("notification.enqueueToast")

	// Honest package name: capped at GuardLimit.
	for i := 0; i < spec.GuardLimit; i++ {
		if err := c.Register("enqueueToast"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Register("enqueueToast"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota error = %v, want ErrQuotaExceeded", err)
	}
	// The Code-Snippet 3 bypass: claim to be "android".
	for i := 0; i < 3*spec.GuardLimit; i++ {
		if err := c.RegisterAs("enqueueToast", "android", c.NewToken()); err != nil {
			t.Fatalf("spoofed toast %d failed: %v", i, err)
		}
	}
	if got := r.svc.EntryCount("enqueueToast"); got != 4*spec.GuardLimit {
		t.Fatalf("entries = %d, want %d", got, 4*spec.GuardLimit)
	}
}

func TestHelperGuardIsClientSideOnly(t *testing.T) {
	r := newSvcRig(t, "wifi", art.Config{})
	r.perms.Grant(r.app.Uid(), "WAKE_LOCK")
	c := r.client(t, "com.evil.app")
	spec, _ := catalog.InterfaceByName("wifi.acquireWifiLock")

	// Through the helper: capped at MAX_ACTIVE_LOCKS = 50.
	h := NewHelper(c, spec)
	for i := 0; i < spec.GuardLimit; i++ {
		if err := h.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	err := h.Acquire()
	if err == nil || !strings.Contains(err.Error(), "maximum number") {
		t.Fatalf("helper over-limit error = %v", err)
	}
	if got := r.svc.EntryCount("acquireWifiLock"); got != spec.GuardLimit {
		t.Fatalf("service entries = %d, want %d (helper released the extra)", got, spec.GuardLimit)
	}

	// Bypassing the helper: the service itself never checks.
	for i := 0; i < 100; i++ {
		if err := c.Register("acquireWifiLock"); err != nil {
			t.Fatalf("direct register %d failed: %v", i, err)
		}
	}
	if got := r.svc.EntryCount("acquireWifiLock"); got != spec.GuardLimit+100 {
		t.Fatalf("service entries = %d, want %d", got, spec.GuardLimit+100)
	}
}

func TestHelperRelease(t *testing.T) {
	r := newSvcRig(t, "wifi", art.Config{})
	r.perms.Grant(r.app.Uid(), "WAKE_LOCK")
	c := r.client(t, "com.evil.app")
	spec, _ := catalog.InterfaceByName("wifi.acquireWifiLock")
	h := NewHelper(c, spec)
	if err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if h.Active() != 0 {
		t.Fatalf("Active = %d, want 0", h.Active())
	}
	if err := h.Release(); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("empty release error = %v", err)
	}
}

func TestInnocentBehavioursLeaveNoResidue(t *testing.T) {
	r := newSvcRig(t, "clipboard", art.Config{})
	c := r.client(t, "com.benign.app")
	base := r.server.VM().GlobalRefCount()
	for _, m := range []string{"getState", "startTask", "checkAccess", "noteEvent"} {
		for i := 0; i < 10; i++ {
			if err := c.Call(m); err != nil {
				t.Fatalf("%s: %v", m, err)
			}
		}
	}
	r.server.VM().GC()
	if got := r.server.VM().GlobalRefCount(); got != base {
		t.Fatalf("JGR after innocent calls + GC = %d, want %d", got, base)
	}
}

func TestMemberOverwriteIsBounded(t *testing.T) {
	r := newSvcRig(t, "clipboard", art.Config{})
	c := r.client(t, "com.benign.app")
	base := r.server.VM().GlobalRefCount()
	for i := 0; i < 50; i++ {
		if err := c.Call("setSingleCallback"); err != nil {
			t.Fatal(err)
		}
	}
	r.server.VM().GC()
	// One retained slot (proxy + death recipient), regardless of calls.
	if got := r.server.VM().GlobalRefCount(); got != base+2 {
		t.Fatalf("JGR after 50 overwrites = %d, want %d", got, base+2)
	}
}

func TestExhaustionThroughGenericService(t *testing.T) {
	r := newSvcRig(t, "audio", art.Config{MaxGlobalRefs: 120})
	c := r.client(t, "com.evil.app")
	calls := 0
	for r.server.Alive() {
		if err := c.Register("startWatchingRoutes"); err != nil && !r.server.Alive() {
			break
		}
		if calls++; calls > 200 {
			t.Fatal("server survived beyond its cap")
		}
	}
	if r.k.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1", r.k.SoftReboots())
	}
}

func TestExecCostAdvancesClock(t *testing.T) {
	r := newSvcRig(t, "audio", art.Config{})
	c := r.client(t, "com.evil.app")
	spec, _ := catalog.InterfaceByName("audio.startWatchingRoutes")

	t0 := r.clock.Now()
	if err := c.Register("startWatchingRoutes"); err != nil {
		t.Fatal(err)
	}
	elapsed := r.clock.Now() - t0
	min := spec.Cost.ExecBase
	max := spec.Cost.ExecBase + spec.Cost.Jitter + time.Millisecond // + driver latency
	if elapsed < min || elapsed > max {
		t.Fatalf("call took %v, want within [%v, %v]", elapsed, min, max)
	}
}

func TestFig5CostGrowsWithEntries(t *testing.T) {
	r := newSvcRig(t, "telephony.registry", art.Config{})
	r.perms.Grant(r.app.Uid(), "READ_PHONE_STATE")
	c := r.client(t, "com.evil.app")

	measure := func() time.Duration {
		t0 := r.clock.Now()
		if err := c.Register("listenForSubscriber"); err != nil {
			t.Fatal(err)
		}
		return r.clock.Now() - t0
	}
	early := measure()
	for i := 0; i < 2000; i++ {
		c.Register("listenForSubscriber")
	}
	late := measure()
	if late <= early+time.Millisecond {
		t.Fatalf("per-call cost did not grow: early=%v late=%v", early, late)
	}
}

func TestMethodNameRoundTrip(t *testing.T) {
	r := newSvcRig(t, "midi", art.Config{})
	for _, name := range r.svc.MethodNames() {
		code, ok := r.svc.Code(name)
		if !ok {
			t.Fatalf("Code(%q) missing", name)
		}
		back, _, ok := r.svc.Dispatch().Lookup(code)
		if !ok || back != name {
			t.Fatalf("Lookup(%d) = %q, want %q", code, back, name)
		}
	}
	// midi: 4 catalogued + 4 unregister + 5 innocent.
	if got := len(r.svc.MethodNames()); got != 13 {
		t.Fatalf("method count = %d, want 13", got)
	}
}

func TestUnknownCodeRejected(t *testing.T) {
	r := newSvcRig(t, "midi", art.Config{})
	svcRef, err := r.sm.GetService("midi", r.app)
	if err != nil {
		t.Fatal(err)
	}
	err = svcRef.Binder().Transact(9999, binder.NewParcel(), binder.NewParcel())
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("error = %v, want ErrNoSuchMethod", err)
	}
}

func TestCodeForMatchesEngine(t *testing.T) {
	r := newSvcRig(t, "wifi", art.Config{})
	for _, name := range r.svc.MethodNames() {
		want, _ := r.svc.Code(name)
		got, ok := CodeFor("wifi", name)
		if !ok || got != want {
			t.Fatalf("CodeFor(wifi, %s) = %d, engine says %d", name, got, want)
		}
	}
}

// TestDispatchTableShared pins that a service's dispatch table is built
// once per process: two instances of one service, on two kernels, and a
// client of it read the same table, and a further New builds none.
func TestDispatchTableShared(t *testing.T) {
	a := newSvcRig(t, "audio", art.Config{})
	b := newSvcRig(t, "audio", art.Config{})
	c := a.client(t, "com.example")
	if b.svc.tab != a.svc.tab || c.tab != a.svc.tab {
		t.Fatal("instances and clients of audio do not share one dispatch table")
	}

	// A New that built its own table would allocate at least what one
	// table build does.
	build := testing.AllocsPerRun(1, func() { newDispatch(catalog.InterfacesForService("audio")) })
	meta, _ := catalog.ServiceByName("audio")
	allocs := testing.AllocsPerRun(20, func() {
		b.sm.RemoveService("audio")
		if _, err := New(Config{Meta: meta, Host: b.server, Driver: b.d, Clock: b.clock, Perms: b.perms, Seed: 2}, b.sm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= build {
		t.Fatalf("New allocates %.0f objects, as many as the %.0f of a table build", allocs, build)
	}
}

func TestBootRefsPinBaseline(t *testing.T) {
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := binder.New(k, binder.Config{})
	sm := binder.NewServiceManager(d)
	perms := permissions.NewManager(nil)
	server := k.Spawn(kernel.SpawnConfig{Name: kernel.SystemServerName, Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
	meta, _ := catalog.ServiceByName("clipboard")
	if _, err := New(Config{
		Meta: meta, Host: server, Driver: d, Clock: clock, Perms: perms, ExtraBootRefs: 17,
	}, sm); err != nil {
		t.Fatal(err)
	}
	if got := server.VM().GlobalRefCount(); got != 17 {
		t.Fatalf("boot JGR = %d, want 17", got)
	}
}

func TestPathVariantShiftsDelay(t *testing.T) {
	r := newSvcRig(t, "audio", art.Config{})
	c := r.client(t, "com.evil.app")

	measure := func(variant int32) time.Duration {
		t0 := r.clock.Now()
		if err := c.RegisterPath("startWatchingRoutes", "com.evil.app", variant, c.NewToken()); err != nil {
			t.Fatal(err)
		}
		return r.clock.Now() - t0
	}
	base := measure(0)
	shifted := measure(2)
	// Variant 2 adds 2×PathShift of pre-JGR execution time.
	if shifted < base+PathShift || shifted > base+3*PathShift {
		t.Fatalf("variant delay shift = %v - %v, want ≈ %v", shifted, base, 2*PathShift)
	}
	// Both calls still register entries.
	if got := r.svc.EntryCount("startWatchingRoutes"); got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
}

func TestPathVariantRejectsOutOfRange(t *testing.T) {
	r := newSvcRig(t, "audio", art.Config{})
	c := r.client(t, "com.evil.app")
	if err := c.RegisterPath("startWatchingRoutes", "com.evil.app", 99, c.NewToken()); err == nil {
		t.Fatal("out-of-range variant accepted")
	}
}

// TestNotifyListenersRoundTrip registers real callback stubs (not mere
// tokens) and checks the service can deliver events back to them — the
// listener pattern working in its intended direction.
func TestNotifyListenersRoundTrip(t *testing.T) {
	r := newSvcRig(t, "clipboard", art.Config{})
	c := r.client(t, "com.listener.app")

	var got []string
	cb := r.d.NewLocalBinder(r.app, "ClipChangedCallback", binder.TransactorFunc(func(call *binder.Call) error {
		s, err := call.Data.ReadString()
		if err != nil {
			return err
		}
		got = append(got, s)
		return nil
	}))
	if err := c.RegisterToken("addPrimaryClipChangedListener", cb); err != nil {
		t.Fatal(err)
	}
	// A second registration with a dumb token: delivery must skip it.
	if err := c.Register("addPrimaryClipChangedListener"); err != nil {
		t.Fatal(err)
	}
	if n := r.svc.NotifyListeners("addPrimaryClipChangedListener", "clip changed"); n != 1 {
		t.Fatalf("delivered = %d, want 1", n)
	}
	if len(got) != 1 || got[0] != "clip changed" {
		t.Fatalf("callback got %v", got)
	}
	// Dead client: delivery cleanly skips (death recipient already
	// removed the entries).
	r.k.Kill(r.app.Pid(), "gone")
	if n := r.svc.NotifyListeners("addPrimaryClipChangedListener", "x"); n != 0 {
		t.Fatalf("delivered to dead client: %d", n)
	}
}
