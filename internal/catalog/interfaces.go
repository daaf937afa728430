package catalog

import (
	"sort"
	"time"

	"repro/internal/permissions"
)

// Permission short-hands for the tables below.
const (
	permAccessFineLocation = permissions.Permission("ACCESS_FINE_LOCATION")
	permUseSip             = permissions.Permission("USE_SIP")
	permBluetooth          = permissions.Permission("BLUETOOTH")
	permWakeLock           = permissions.Permission("WAKE_LOCK")
	permGetPackageSize     = permissions.Permission("GET_PACKAGE_SIZE")
	permReadPhoneState     = permissions.Permission("READ_PHONE_STATE")
	permChangeNetState     = permissions.Permission("CHANGE_NETWORK_STATE")
	permAccessNetState     = permissions.Permission("ACCESS_NETWORK_STATE")
	permChangeWifiMulti    = permissions.Permission("CHANGE_WIFI_MULTICAST_STATE")
	permAccessLauncherApps = permissions.Permission("ACCESS_LAUNCHER_APPS")
)

// PermissionLevels lists every permission the catalog references with its
// AOSP 6.0.1 protection level; the device installs these definitions at
// boot and the analysis's PScout-style permission map is derived from it.
var PermissionLevels = map[permissions.Permission]permissions.Level{
	permAccessFineLocation: permissions.LevelDangerous,
	permUseSip:             permissions.LevelDangerous,
	permReadPhoneState:     permissions.LevelDangerous,
	permBluetooth:          permissions.LevelNormal,
	permWakeLock:           permissions.LevelNormal,
	permGetPackageSize:     permissions.LevelNormal,
	permChangeNetState:     permissions.LevelNormal,
	permAccessNetState:     permissions.LevelNormal,
	permChangeWifiMulti:    permissions.LevelNormal,
	permAccessLauncherApps: permissions.LevelNormal,
}

// unprotectedRows transcribes Table I: the 44 unprotected vulnerable IPC
// interfaces across 26 system services, with the permission (and
// protection level) each requires in AOSP 6.0.1.
var unprotectedRows = []Interface{
	{Service: "location", Method: "addGpsStatusListener", Permission: permAccessFineLocation, PermLevel: permissions.LevelDangerous},
	{Service: "sip", Method: "open3", Permission: permUseSip, PermLevel: permissions.LevelDangerous,
		Cost: CostModel{AttackSeconds: 1600, AnalysisWeight: 2.6}},
	{Service: "sip", Method: "createSession", Permission: permUseSip, PermLevel: permissions.LevelDangerous},
	{Service: "midi", Method: "registerListener"},
	{Service: "midi", Method: "openDevice"},
	{Service: "midi", Method: "openBluetoothDevice"},
	{Service: "midi", Method: "registerDeviceServer",
		Cost: CostModel{AttackSeconds: 1750, AnalysisWeight: 9.5}},
	{Service: "content", Method: "registerContentObserver"},
	{Service: "content", Method: "addStatusChangeListener"},
	{Service: "mount", Method: "registerListener"},
	{Service: "appops", Method: "startWatchingMode"},
	{Service: "appops", Method: "getToken"},
	{Service: "bluetooth_manager", Method: "registerAdapter"},
	{Service: "bluetooth_manager", Method: "registerStateChangeCallback", Permission: permBluetooth, PermLevel: permissions.LevelNormal},
	{Service: "bluetooth_manager", Method: "bindBluetoothProfileService"},
	// Table I lists bindBluetoothProfileService twice: the service
	// exposes two vulnerable overloads.
	{Service: "bluetooth_manager", Method: "bindBluetoothProfileService(int)"},
	{Service: "audio", Method: "registerRemoteController"},
	{Service: "audio", Method: "startWatchingRoutes",
		// The fastest attack of Fig. 3: exhaustion in ≈100 s.
		Cost: CostModel{ExecBase: 1200 * time.Microsecond, Jitter: 600 * time.Microsecond, AttackSeconds: 100}},
	{Service: "country_detector", Method: "addCountryListener"},
	{Service: "power", Method: "acquireWakeLock", Permission: permWakeLock, PermLevel: permissions.LevelNormal},
	{Service: "input_method", Method: "addClient"},
	{Service: "accessibility", Method: "addAccessibilityInteractionConnection"},
	{Service: "print", Method: "print"},
	{Service: "print", Method: "addPrintJobStateChangeListener"},
	{Service: "print", Method: "createPrinterDiscoverySession"},
	{Service: "package", Method: "getPackageSizeInfo", Permission: permGetPackageSize, PermLevel: permissions.LevelNormal},
	{Service: "telephony.registry", Method: "addOnSubscriptionsChangedListener", Permission: permReadPhoneState, PermLevel: permissions.LevelDangerous},
	{Service: "telephony.registry", Method: "listen", Permission: permReadPhoneState, PermLevel: permissions.LevelDangerous},
	{Service: "telephony.registry", Method: "listenForSubscriber", Permission: permReadPhoneState, PermLevel: permissions.LevelDangerous,
		// Fig. 5's subject: the handler scans its stored registrations,
		// so per-call cost grows from ≈1 ms to ≈55 ms across a
		// 50,236-call attack.
		Cost: CostModel{ExecBase: 900 * time.Microsecond, ExecSlope: 1050 * time.Nanosecond, Jitter: 800 * time.Microsecond, AttackSeconds: 1400}},
	{Service: "media_session", Method: "registerCallbackListener"},
	{Service: "media_session", Method: "createSession"},
	{Service: "media_router", Method: "registerClientAsUser"},
	{Service: "media_projection", Method: "registerCallback"},
	{Service: "input", Method: "vibrate"},
	{Service: "window", Method: "watchRotation"},
	{Service: "wallpaper", Method: "getWallpaper"},
	{Service: "fingerprint", Method: "addLockoutResetCallback"},
	{Service: "textservices", Method: "getSpellCheckerService"},
	{Service: "network_management", Method: "registerNetworkActivityListener", Permission: permChangeNetState, PermLevel: permissions.LevelNormal},
	{Service: "connectivity", Method: "requestNetwork", Permission: permChangeNetState, PermLevel: permissions.LevelNormal},
	{Service: "connectivity", Method: "listenForNetwork", Permission: permAccessNetState, PermLevel: permissions.LevelNormal},
	{Service: "activity", Method: "registerTaskStackListener"},
	{Service: "activity", Method: "registerReceiver"},
	{Service: "activity", Method: "bindService"},
}

// helperGuardRows transcribes Table II: the 9 interfaces guarded only in
// their service helper classes. Every one is bypassable by talking to the
// raw binder (paper §IV-C1: "We verify that all 9 vulnerable interfaces in
// Table II still can be exploited").
var helperGuardRows = []Interface{
	{Service: "clipboard", Method: "addPrimaryClipChangedListener", HelperClass: "ClipboardManager", GuardLimit: 20},
	{Service: "accessibility", Method: "addClient", HelperClass: "AccessibilityManager", GuardLimit: 1},
	{Service: "launcherapps", Method: "addOnAppsChangedListener", HelperClass: "LauncherApps", GuardLimit: 16,
		Permission: permAccessLauncherApps, PermLevel: permissions.LevelNormal},
	{Service: "tv_input", Method: "registerCallback", HelperClass: "TvInputManager", GuardLimit: 8},
	{Service: "ethernet", Method: "addListener", HelperClass: "EthernetManager", GuardLimit: 8,
		Permission: permAccessNetState, PermLevel: permissions.LevelNormal},
	// WifiManager's MAX_ACTIVE_LOCKS = 50, added explicitly "to prevent
	// apps from creating a ridiculous number of locks and crashing the
	// system by overflowing the global ref table" (Code-Snippet 1).
	{Service: "wifi", Method: "acquireWifiLock", HelperClass: "WifiManager", GuardLimit: 50,
		Permission: permWakeLock, PermLevel: permissions.LevelNormal},
	{Service: "wifi", Method: "acquireMulticastLock", HelperClass: "WifiManager", GuardLimit: 50,
		Permission: permChangeWifiMulti, PermLevel: permissions.LevelNormal},
	{Service: "location", Method: "addGpsMeasurementsListener", HelperClass: "LocationManager", GuardLimit: 4,
		Permission: permAccessFineLocation, PermLevel: permissions.LevelDangerous},
	{Service: "location", Method: "addGpsNavigationMessageListener", HelperClass: "LocationManager", GuardLimit: 4,
		Permission: permAccessFineLocation, PermLevel: permissions.LevelDangerous},
}

// perProcessRows transcribes Table III: the 4 interfaces protected by a
// per-process constraint in the service itself. Three are implemented
// correctly; NotificationManagerService.enqueueToast exempts "system
// toasts" based on a caller-supplied package string, so passing "android"
// bypasses the quota (Code-Snippet 3).
var perProcessRows = []Interface{
	{Service: "notification", Method: "enqueueToast", GuardLimit: 50,
		Bypassable: true,
		BypassNote: `caller-supplied package name: passing "android" marks the toast as a system toast and skips the MAX_PACKAGE_NOTIFICATIONS check`,
		// The slowest attack of Fig. 3: ≈1,800 s to exhaustion.
		Cost: CostModel{ExecBase: 2500 * time.Microsecond, Jitter: 1800 * time.Microsecond, AttackSeconds: 1800, AnalysisWeight: 2.6}},
	{Service: "display", Method: "registerCallback", GuardLimit: 1},
	{Service: "input", Method: "registerInputDevicesChangedListener", GuardLimit: 1},
	{Service: "input", Method: "registerTabletModeChangedListener", GuardLimit: 1},
}

// ifaces is the assembled system-service interface ground truth.
var ifaces = assembleInterfaces()

func assembleInterfaces() []Interface {
	var out []Interface
	for _, r := range unprotectedRows {
		r.Protection = Unprotected
		r.RetainsBinder = true
		r.Bypassable = false
		out = append(out, finishCost(r))
	}
	for _, r := range helperGuardRows {
		r.Protection = HelperGuard
		r.RetainsBinder = true
		r.Bypassable = true
		if r.BypassNote == "" {
			r.BypassNote = "helper-class quota runs in the caller's process; call the binder interface directly (Code-Snippet 2)"
		}
		out = append(out, finishCost(r))
	}
	for _, r := range perProcessRows {
		r.Protection = PerProcessGuard
		r.RetainsBinder = true
		out = append(out, finishCost(r))
	}
	return out
}

// Interfaces returns all catalogued system-service interface rows
// (Tables I–III; 57 rows, of which 54 are exploitable).
func Interfaces() []Interface {
	out := make([]Interface, len(ifaces))
	copy(out, ifaces)
	return out
}

// InterfaceByName returns the row for "service.method".
func InterfaceByName(full string) (Interface, bool) {
	for _, i := range ifaces {
		if i.FullName() == full {
			return i, true
		}
	}
	return Interface{}, false
}

// ExploitableInterfaces returns the rows a third-party app can drive to
// exhaustion — the paper's 54.
func ExploitableInterfaces() []Interface {
	var out []Interface
	for _, i := range ifaces {
		if i.Exploitable() {
			out = append(out, i)
		}
	}
	return out
}

// FastestInterfaces returns the full names of the n exploitable
// interfaces with the shortest projected attack time, one per service,
// fastest first — the targets of the Fig. 9 colluders, the fleet
// workloads and the traced attack.
func FastestInterfaces(n int) []string {
	rows := ExploitableInterfaces()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cost.AttackSeconds < rows[j].Cost.AttackSeconds })
	var out []string
	seen := make(map[string]bool)
	for _, r := range rows {
		if seen[r.Service] {
			continue
		}
		seen[r.Service] = true
		out = append(out, r.FullName())
		if len(out) == n {
			break
		}
	}
	return out
}

// VulnerableServiceNames returns the names of services with at least one
// exploitable interface — the paper's 32.
func VulnerableServiceNames() []string {
	seen := make(map[string]bool)
	var out []string
	for _, i := range ifaces {
		if i.Exploitable() && !seen[i.Service] {
			seen[i.Service] = true
			out = append(out, i.Service)
		}
	}
	return out
}

// InterfacesForService returns all catalogued rows of one service.
func InterfacesForService(service string) []Interface {
	var out []Interface
	for _, i := range ifaces {
		if i.Service == service {
			out = append(out, i)
		}
	}
	return out
}

// prebuiltAppRows transcribes Table IV: 3 vulnerable interfaces in 2 of
// the 88 prebuilt core apps.
var prebuiltAppRows = []AppInterface{
	{App: "PicoTts", Package: "com.svox.pico", CodePath: "external/svox/pico",
		Method: "PicoService.setCallback()", Prebuilt: true,
		Cost: CostModel{ExecBase: 700 * time.Microsecond, Jitter: 500 * time.Microsecond, AttackSeconds: 260, AnalysisWeight: 1}},
	{App: "Bluetooth", Package: "com.android.bluetooth", CodePath: "packages/apps/Bluetooth",
		Method: "GattService.registerServer()", Prebuilt: true,
		Cost: CostModel{ExecBase: 900 * time.Microsecond, Jitter: 700 * time.Microsecond, AttackSeconds: 340, AnalysisWeight: 1}},
	{App: "Bluetooth", Package: "com.android.bluetooth", CodePath: "packages/apps/Bluetooth",
		Method: "AdapterService.registerCallback()", Prebuilt: true,
		Cost: CostModel{ExecBase: 800 * time.Microsecond, Jitter: 650 * time.Microsecond, AttackSeconds: 300, AnalysisWeight: 1}},
}

// thirdPartyAppRows transcribes Table V: 3 vulnerable apps among 1,000
// scanned from Google Play.
var thirdPartyAppRows = []AppInterface{
	{App: "Google Text-to-speech", Package: "com.google.android.tts",
		Method: "TextToSpeechService.setCallback()", Downloads: "1e9–5e9",
		Cost: CostModel{ExecBase: 700 * time.Microsecond, Jitter: 500 * time.Microsecond, AttackSeconds: 270, AnalysisWeight: 1}},
	{App: "Supernet VPN", Package: "com.supernet.vpn",
		Method: "IOpenVPNAPIService.registerStatusCallback()", Downloads: "1e6–5e6",
		Cost: CostModel{ExecBase: 1100 * time.Microsecond, Jitter: 900 * time.Microsecond, AttackSeconds: 420, AnalysisWeight: 1}},
	{App: "SnapMovie", Package: "com.snapmovie.app",
		Method: "IMainService.a()", Downloads: "1e6–5e6",
		Cost: CostModel{ExecBase: 600 * time.Microsecond, Jitter: 400 * time.Microsecond, AttackSeconds: 210, AnalysisWeight: 1}},
}

// PrebuiltAppInterfaces returns Table IV.
func PrebuiltAppInterfaces() []AppInterface {
	out := make([]AppInterface, len(prebuiltAppRows))
	copy(out, prebuiltAppRows)
	return out
}

// ThirdPartyAppInterfaces returns Table V.
func ThirdPartyAppInterfaces() []AppInterface {
	out := make([]AppInterface, len(thirdPartyAppRows))
	copy(out, thirdPartyAppRows)
	return out
}

// PrebuiltAppCount is the number of prebuilt core apps on the studied
// build (paper §IV-D: "Among 88 prebuilt core apps...").
const PrebuiltAppCount = 88

// ThirdPartyScanCount is the number of Google Play apps the paper's scan
// covered (§IV-D).
const ThirdPartyScanCount = 1000

// JGRThreshold is the runtime's global-reference cap, re-exported here so
// report code does not need to import internal/art.
const JGRThreshold = 51200

// Native call-graph funnel constants (paper §III-B1): the static search
// finds 147 paths from JNI methods to IndirectReferenceTable::Add, of
// which 67 are reachable only during runtime initialization (class
// caching etc.) and are filtered out, leaving 80 exploitable entry paths.
const (
	NativeAddPaths       = 147
	NativeInitOnlyPaths  = 67
	NativeReachablePaths = NativeAddPaths - NativeInitOnlyPaths
)
