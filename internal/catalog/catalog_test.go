package catalog

import (
	"testing"
	"time"

	"repro/internal/permissions"
)

// TestCensusTotals pins the paper's headline inventory numbers.
func TestCensusTotals(t *testing.T) {
	if got := len(Services()); got != 104 {
		t.Errorf("service census = %d, want 104", got)
	}
	if got := len(NativeServices()); got != 5 {
		t.Errorf("native services = %d, want 5 (paper §III-A)", got)
	}
	if got := len(Interfaces()); got != 57 {
		t.Errorf("catalogued system-service interfaces = %d, want 57 (44+9+4)", got)
	}
	if got := len(ExploitableInterfaces()); got != 54 {
		t.Errorf("exploitable interfaces = %d, want 54", got)
	}
	if got := len(VulnerableServiceNames()); got != 32 {
		t.Errorf("vulnerable services = %d, want 32", got)
	}
}

func TestProtectionBreakdown(t *testing.T) {
	var unprot, helper, perProc, protStillVuln int
	for _, i := range Interfaces() {
		switch i.Protection {
		case Unprotected:
			unprot++
		case HelperGuard:
			helper++
			if !i.Bypassable {
				t.Errorf("%s: helper guards are always bypassable", i.FullName())
			}
		case PerProcessGuard:
			perProc++
		}
		if i.Protection != Unprotected && i.Exploitable() {
			protStillVuln++
		}
	}
	if unprot != 44 {
		t.Errorf("unprotected (Table I) = %d, want 44", unprot)
	}
	if helper != 9 {
		t.Errorf("helper-guarded (Table II) = %d, want 9", helper)
	}
	if perProc != 4 {
		t.Errorf("per-process-guarded (Table III) = %d, want 4", perProc)
	}
	if protStillVuln != 10 {
		t.Errorf("protected-but-still-vulnerable = %d, want 10 (paper §I)", protStillVuln)
	}
}

// TestZeroPermissionServices pins "22 system services can be successfully
// attacked without any permission support" (paper abstract).
func TestZeroPermissionServices(t *testing.T) {
	seen := make(map[string]bool)
	for _, i := range Interfaces() {
		if i.Exploitable() && i.Permission == "" {
			seen[i.Service] = true
		}
	}
	if len(seen) != 22 {
		t.Errorf("zero-permission attackable services = %d, want 22 (%v)", len(seen), seen)
	}
}

// TestPermissionLevelBands pins Table I's summary: of the 26 unprotected
// vulnerable services, 19 need no permission, 4 need normal-level
// permissions and 3 need dangerous-level permissions.
func TestPermissionLevelBands(t *testing.T) {
	best := make(map[string]permissions.Level) // weakest requirement per service
	for _, i := range Interfaces() {
		if i.Protection != Unprotected {
			continue
		}
		lvl, ok := best[i.Service]
		if !ok || i.PermLevel < lvl {
			best[i.Service] = i.PermLevel
		}
	}
	if len(best) != 26 {
		t.Fatalf("unprotected vulnerable services = %d, want 26", len(best))
	}
	var none, normal, dangerous int
	for _, lvl := range best {
		switch lvl {
		case permissions.LevelNone:
			none++
		case permissions.LevelNormal:
			normal++
		case permissions.LevelDangerous:
			dangerous++
		}
	}
	if none != 19 || normal != 4 || dangerous != 3 {
		t.Errorf("bands = %d/%d/%d, want 19 none / 4 normal / 3 dangerous", none, normal, dangerous)
	}
}

func TestEveryInterfaceServiceExists(t *testing.T) {
	for _, i := range Interfaces() {
		if _, ok := ServiceByName(i.Service); !ok {
			t.Errorf("%s: service %q not in census", i.FullName(), i.Service)
		}
	}
}

func TestInterfaceKeysUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, i := range Interfaces() {
		if seen[i.FullName()] {
			t.Errorf("duplicate interface key %s", i.FullName())
		}
		seen[i.FullName()] = true
	}
}

// TestServiceAtMatchesServices pins the census's read-only range: it
// visits Services' rows in Services' order and copies nothing.
func TestServiceAtMatchesServices(t *testing.T) {
	all := Services()
	if NumServices() != len(all) {
		t.Fatalf("NumServices = %d, want %d", NumServices(), len(all))
	}
	for i, want := range all {
		if got := ServiceAt(i); got != want {
			t.Fatalf("ServiceAt(%d) = %+v, want %+v", i, got, want)
		}
	}
	var native int
	allocs := testing.AllocsPerRun(10, func() {
		native = 0
		for i := 0; i < NumServices(); i++ {
			if ServiceAt(i).Native {
				native++
			}
		}
	})
	if allocs != 0 || native != len(NativeServices()) {
		t.Fatalf("ranging the census: %v allocs, %d native services; want 0 and %d", allocs, native, len(NativeServices()))
	}
}

func TestServiceNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range Services() {
		if seen[s.Name] {
			t.Errorf("duplicate service name %s", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestPermissionConsistency(t *testing.T) {
	for _, i := range Interfaces() {
		if i.Permission == "" {
			if i.PermLevel != permissions.LevelNone {
				t.Errorf("%s: no permission but level %v", i.FullName(), i.PermLevel)
			}
			continue
		}
		want, ok := PermissionLevels[i.Permission]
		if !ok {
			t.Errorf("%s: permission %s not in PermissionLevels", i.FullName(), i.Permission)
			continue
		}
		if i.PermLevel != want {
			t.Errorf("%s: level %v, PermissionLevels says %v", i.FullName(), i.PermLevel, want)
		}
	}
}

func TestCostModelEnvelope(t *testing.T) {
	var fastest, slowest Interface
	var jitterSum time.Duration
	for _, i := range Interfaces() {
		c := i.Cost
		if c.ExecBase <= 0 || c.Jitter <= 0 || c.AttackSeconds <= 0 || c.AnalysisWeight <= 0 {
			t.Errorf("%s: incomplete cost model %+v", i.FullName(), c)
		}
		if c.AttackSeconds < 100 || c.AttackSeconds > 1800 {
			t.Errorf("%s: AttackSeconds %d outside Fig. 3 envelope [100, 1800]", i.FullName(), c.AttackSeconds)
		}
		if fastest.Service == "" || c.AttackSeconds < fastest.Cost.AttackSeconds {
			fastest = i
		}
		if slowest.Service == "" || c.AttackSeconds > slowest.Cost.AttackSeconds {
			slowest = i
		}
		jitterSum += c.Jitter
	}
	if fastest.FullName() != "audio.startWatchingRoutes" {
		t.Errorf("fastest attack = %s, want audio.startWatchingRoutes (paper §IV-A)", fastest.FullName())
	}
	if slowest.FullName() != "notification.enqueueToast" {
		t.Errorf("slowest attack = %s, want notification.enqueueToast (paper §IV-A)", slowest.FullName())
	}
	// §V-C sets Δ to the all-services average of 1.8 ms; the catalogued
	// jitters must average in that neighbourhood.
	avg := jitterSum / time.Duration(len(Interfaces()))
	if avg < 1200*time.Microsecond || avg > 2400*time.Microsecond {
		t.Errorf("average Δ = %v, want ≈1.8 ms", avg)
	}
}

func TestFig5SubjectHasGrowingCost(t *testing.T) {
	i, ok := InterfaceByName("telephony.registry.listenForSubscriber")
	if !ok {
		t.Fatal("listenForSubscriber missing")
	}
	if i.Cost.ExecSlope <= 0 {
		t.Fatal("listenForSubscriber needs a positive ExecSlope to reproduce Fig. 5")
	}
	// At 50,000 stored entries the per-call cost must be in the tens of
	// milliseconds, as Fig. 5 shows.
	at50k := i.Cost.ExecBase + 50000*i.Cost.ExecSlope
	if at50k < 30*time.Millisecond || at50k > 90*time.Millisecond {
		t.Errorf("cost at 50k entries = %v, want tens of ms", at50k)
	}
}

func TestWifiGuardMatchesCodeSnippet1(t *testing.T) {
	i, ok := InterfaceByName("wifi.acquireWifiLock")
	if !ok {
		t.Fatal("acquireWifiLock missing")
	}
	if i.Protection != HelperGuard || i.HelperClass != "WifiManager" || i.GuardLimit != 50 {
		t.Errorf("wifi guard = %+v, want WifiManager helper with MAX_ACTIVE_LOCKS=50", i)
	}
	if !i.Exploitable() {
		t.Error("acquireWifiLock must remain exploitable despite the helper guard")
	}
}

func TestEnqueueToastBypass(t *testing.T) {
	i, ok := InterfaceByName("notification.enqueueToast")
	if !ok {
		t.Fatal("enqueueToast missing")
	}
	if i.Protection != PerProcessGuard || !i.Bypassable || !i.Exploitable() {
		t.Errorf("enqueueToast = %+v, want bypassable per-process guard", i)
	}
	// The other three per-process rows hold.
	for _, name := range []string{
		"display.registerCallback",
		"input.registerInputDevicesChangedListener",
		"input.registerTabletModeChangedListener",
	} {
		j, ok := InterfaceByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if j.Exploitable() {
			t.Errorf("%s: correctly-implemented per-process guard must not be exploitable", name)
		}
	}
}

func TestAppTables(t *testing.T) {
	pre := PrebuiltAppInterfaces()
	if len(pre) != 3 {
		t.Fatalf("Table IV rows = %d, want 3", len(pre))
	}
	apps := make(map[string]bool)
	for _, a := range pre {
		if !a.Prebuilt {
			t.Errorf("%s: not marked prebuilt", a.FullName())
		}
		if a.CodePath == "" {
			t.Errorf("%s: prebuilt app needs an AOSP code path", a.FullName())
		}
		apps[a.App] = true
	}
	if len(apps) != 2 {
		t.Errorf("Table IV apps = %d, want 2 (PicoTts, Bluetooth)", len(apps))
	}
	tp := ThirdPartyAppInterfaces()
	if len(tp) != 3 {
		t.Fatalf("Table V rows = %d, want 3", len(tp))
	}
	for _, a := range tp {
		if a.Prebuilt || a.Downloads == "" {
			t.Errorf("%s: Table V row malformed: %+v", a.FullName(), a)
		}
	}
}

func TestInterfacesForService(t *testing.T) {
	midi := InterfacesForService("midi")
	if len(midi) != 4 {
		t.Fatalf("midi interfaces = %d, want 4", len(midi))
	}
	if got := InterfacesForService("no_such_service"); got != nil {
		t.Fatalf("unknown service returned %v", got)
	}
}

func TestNativeFunnelConstants(t *testing.T) {
	if NativeAddPaths != 147 || NativeInitOnlyPaths != 67 || NativeReachablePaths != 80 {
		t.Fatalf("native funnel constants = %d/%d/%d, want 147/67/80",
			NativeAddPaths, NativeInitOnlyPaths, NativeReachablePaths)
	}
}

func TestHostProcess(t *testing.T) {
	s, _ := ServiceByName("clipboard")
	if s.HostProcess() != "system_server" {
		t.Errorf("clipboard host = %s, want system_server", s.HostProcess())
	}
	m, _ := ServiceByName("media.player")
	if m.HostProcess() != "mediaserver" || !m.Native {
		t.Errorf("media.player = %+v, want native in mediaserver", m)
	}
}

func TestSpreadDeterministicAndBounded(t *testing.T) {
	a := spread("x", 10, 20)
	b := spread("x", 10, 20)
	if a != b {
		t.Fatal("spread not deterministic")
	}
	for _, name := range []string{"a", "b", "c", "longer.name", ""} {
		v := spread(name, 5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("spread(%q) = %d outside [5, 9]", name, v)
		}
	}
}
