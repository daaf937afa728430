// Package device assembles the full simulated Android 6.0.1 system: the
// kernel, the binder driver, the ServiceManager with all 104 system
// services from the catalog census, the prebuilt core apps of Table IV,
// and the soft-reboot recovery path. It is the top-level substrate every
// experiment runs on.
package device

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/services"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Well-known prebuilt-app uids.
const (
	BluetoothUid kernel.Uid = 1002  // AID_BLUETOOTH
	PicoTtsUid   kernel.Uid = 10035 // an app uid below the installer range
)

// DefaultBaselineProcesses matches the paper's Fig. 4 observation: "There
// are 382 processes running on stock Android that has not installed any
// third-party apps."
const DefaultBaselineProcesses = 382

// Config parameterizes a device boot. Every device runs the stock
// DefaultBaselineProcesses processes with the per-service boot-time JGR
// pins of Fig. 4, and its binder driver charges binder.DefaultLatency
// per transaction; Config sets only what the experiments vary.
type Config struct {
	// Seed drives all randomized cost jitter; equal seeds give identical
	// runs.
	Seed int64
	// ServerVM overrides the system_server runtime config (tests and
	// the exhaust benchmark use small JGR caps to exhaust quickly). The
	// abort hook is always chained to the kernel.
	ServerVM art.Config
	// Faults declares the telemetry fault model. The zero value is the
	// paper's lossless chain. Boot derives the binder driver's injector
	// from this and Seed, so BootConfig round trips cleanly: the stored
	// config never carries injector state, and a re-boot gets a fresh
	// injector making the same seeded decisions.
	Faults faults.Config
	// UniversalQuota applies a per-caller-pid cap to every catalogued
	// interface on every service — the §IV-B "patch all services"
	// counterfactual. 0 disables it.
	UniversalQuota int
	// InstallThirdPartyApps additionally installs the Table V vulnerable
	// Google Play apps and publishes their services, so the pipeline's
	// dynamic stage can verify them.
	InstallThirdPartyApps bool
	// Trace configures the causal flight recorder (see trace.Config). The
	// zero value is off: no recorder is allocated and scenario output is
	// byte-identical to a build without the tracing layer.
	Trace trace.Config
}

// Fixed uids for the Table V apps (below the sequential installer range
// so experiment attacker uids still start at 10059).
var thirdPartyUids = map[string]kernel.Uid{
	"com.google.android.tts": 10040,
	"com.supernet.vpn":       10041,
	"com.snapmovie.app":      10042,
}

// IPCTarget identifies what a logged IPC record was aimed at.
type IPCTarget struct {
	// Kind is "system" for system services, "app" for app services.
	Kind string
	// Service is the ServiceManager name (system) or the published
	// registry name (app).
	Service string
	// Method is the resolved method name.
	Method string
	// Catalogued is the catalog row when the method is a known
	// vulnerable interface.
	Catalogued *catalog.Interface
	// AppRow is the catalog row for app-service interfaces.
	AppRow *catalog.AppInterface
}

// FullName returns "service.method".
func (t IPCTarget) FullName() string { return t.Service + "." + t.Method }

// Device is a booted simulated Android system.
type Device struct {
	cfg    Config
	clock  *simclock.Clock
	kern   *kernel.Kernel
	driver *binder.Driver
	sm     *binder.ServiceManager
	perms  *permissions.Manager
	apps   *apps.Manager
	appReg *apps.ServiceRegistry

	systemServer *kernel.Process
	hosts        map[string]*kernel.Process
	services     map[string]*services.Service
	appServices  map[string]*apps.AppService
	// svcOrder and appOrder record the service creation/publish order so
	// a snapshot clone can replay the stubs and reproduce the template's
	// driver ids without consulting (and copying) the catalog census.
	svcOrder    []string
	appOrder    []string
	handleIndex map[binder.Handle]handleEntry
	// svcSlab and appSlab are the clone replay's backing arrays (the
	// services/appServices maps point into them); a slot recycle rewinds
	// and refills them in place instead of allocating new slabs.
	svcSlab []services.Service
	appSlab []apps.AppService

	// sealed marks the device as an immutable snapshot template (see
	// Snapshot); it must not run workloads from then on, only clone.
	sealed bool

	// resolveMu guards resolveMemo, the (handle, code) → IPCTarget cache
	// behind Resolve. The lock exists for Resolve's concurrent readers
	// (the Δ-sweep scores windows across a worker pool); every
	// handleIndex mutation invalidates the whole memo. Safe because the
	// driver never reuses handles.
	resolveMu   sync.RWMutex
	resolveMemo map[resolveKey]resolveResult

	broadcastSeq uint64
	onReboot     []func(reason string)

	// rec is the causal flight recorder (nil = tracing off; see
	// flight.go).
	rec *trace.Recorder

	// onServiceRestart observers fire after RestartHost/RestartAppService
	// completes a re-registration; clientRetry, when non-zero, is applied
	// to every client NewClient opens (the chaos sweeps set it so benign
	// actors ride out service restarts).
	onServiceRestart []func(kind, name string)
	clientRetry      services.RetryPolicy

	// metrics is the device's telemetry registry, rendered on demand
	// through /proc/jgre_metrics; metricsMu guards its lazy
	// materialization on clones (see Metrics); defenderHealth is the
	// defense layer's health provider (nil until a defender attaches).
	metricsMu      sync.Mutex
	metrics        *telemetry.Registry
	defenderHealth func() DefenderHealth
}

type handleEntry struct {
	kind string
	sys  *services.Service
	app  *apps.AppService
	name string
}

// resolveKey addresses one memoized Resolve result.
type resolveKey struct {
	handle binder.Handle
	code   binder.TxCode
}

type resolveResult struct {
	target IPCTarget
	ok     bool
}

// invalidateResolve drops the Resolve memo; callers must do this after
// every handleIndex mutation (service starts, reboots, republication).
func (d *Device) invalidateResolve() {
	d.resolveMu.Lock()
	d.resolveMemo = nil
	d.resolveMu.Unlock()
}

// Boot returns a booted device. When the configuration is cacheable —
// no caller-supplied ServerVM.OnAbort hook — the device is a
// microsecond copy-on-write clone of a snapshot template that was booted
// once per configuration shape and sealed (see Snapshot/CloneWithSeed);
// otherwise it falls through to BootFresh. Clones are byte-identical to
// fresh boots: the seed only feeds lazily-initialized jitter rngs, which
// CloneWithSeed re-keys. SetCloneBoot(false) disables the cache.
func Boot(cfg Config) (*Device, error) {
	tmpl, err := Template(cfg)
	if err != nil {
		return nil, err
	}
	if tmpl == nil {
		return BootFresh(cfg)
	}
	// Every caller — including the one that just paid for the template —
	// gets a clone; the sealed template never leaves the cache.
	return tmpl.CloneWithSeed(cfg.Seed)
}

// BootFresh builds and starts a device from scratch, bypassing the
// clone-template cache (benchmarks comparing boot vs clone use this).
func BootFresh(cfg Config) (*Device, error) {
	d := &Device{cfg: cfg}
	d.clock = simclock.New()
	d.rec = newRecorder(cfg)

	d.kern = kernel.New(d.clock, kernel.Config{OnSystemServerDeath: d.restartSystem})
	d.metrics = telemetry.NewRegistry()
	dcfg := binder.Config{Metrics: d.metrics}
	if cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		dcfg.Faults = faults.New(cfg.Faults, cfg.Seed)
	}
	d.driver = binder.New(d.kern, dcfg)
	d.driver.SetRecorder(d.rec)
	d.sm = binder.NewServiceManager(d.driver)
	d.perms = permissions.NewManager()
	for p, l := range catalog.PermissionLevels {
		d.perms.Define(p, l)
	}
	d.apps = apps.NewManager(d.kern, d.perms)
	d.appReg = apps.NewServiceRegistry(d.driver)

	if err := d.startSystem(); err != nil {
		return nil, err
	}
	if err := d.installPrebuilts(); err != nil {
		return nil, err
	}
	if cfg.InstallThirdPartyApps {
		if err := d.installThirdParty(); err != nil {
			return nil, err
		}
	}
	d.spawnBaselineFillers()
	d.attachTraceVMs()
	d.registerMetrics()
	if err := d.kern.ProcFS().CreateProvider(MetricsPath, kernel.RootUid, false, d.metrics.RenderProm); err != nil {
		return nil, err
	}
	return d, nil
}

// installThirdParty installs the Table V apps and publishes their
// vulnerable services.
func (d *Device) installThirdParty() error {
	for _, row := range catalog.ThirdPartyAppInterfaces() {
		if d.apps.ByPackage(row.Package) == nil {
			uid, ok := thirdPartyUids[row.Package]
			if !ok {
				return fmt.Errorf("device: no reserved uid for %s", row.Package)
			}
			if _, err := d.apps.InstallWithUid(row.Package, uid); err != nil {
				return err
			}
		}
	}
	return d.publishThirdPartyServices()
}

func (d *Device) publishThirdPartyServices() error {
	for _, row := range catalog.ThirdPartyAppInterfaces() {
		name := apps.AppServiceName(row)
		owner := d.apps.ByPackage(row.Package)
		if owner == nil {
			return fmt.Errorf("device: third-party %s not installed", row.Package)
		}
		d.appReg.Unpublish(name)
		svc, err := apps.NewAppService(owner, d.driver, d.clock, d.appReg, []catalog.AppInterface{row}, d.cfg.Seed)
		if err != nil {
			return fmt.Errorf("device: publishing %s: %w", name, err)
		}
		d.appServices[name] = svc
		d.appOrder = append(d.appOrder, name)
		d.handleIndex[d.driver.HandleOf(svc.Stub())] = handleEntry{kind: "app", app: svc, name: name}
	}
	d.invalidateResolve()
	return nil
}

// startSystem spawns system_server and the dedicated host processes, then
// instantiates all census services.
func (d *Device) startSystem() error {
	d.hosts = make(map[string]*kernel.Process)
	d.services = make(map[string]*services.Service)
	d.svcOrder = nil
	d.handleIndex = make(map[binder.Handle]handleEntry)
	d.invalidateResolve()

	d.systemServer = d.kern.Spawn(kernel.SpawnConfig{
		Name:        kernel.SystemServerName,
		Uid:         kernel.SystemUid,
		OomScoreAdj: kernel.SystemAdj,
		MemoryKB:    180 * 1024,
		VM:          d.cfg.ServerVM,
	})
	d.hosts[kernel.SystemServerName] = d.systemServer

	for _, meta := range catalog.Services() {
		hostName := meta.HostProcess()
		host, ok := d.hosts[hostName]
		if !ok {
			host = d.kern.Spawn(kernel.SpawnConfig{
				Name:        hostName,
				Uid:         kernel.SystemUid,
				OomScoreAdj: kernel.PersistentProcAdj,
				MemoryKB:    30 * 1024,
			})
			d.hosts[hostName] = host
		}
		svc, err := services.New(services.Config{
			Meta:           meta,
			Ifaces:         catalog.InterfacesForService(meta.Name),
			Host:           host,
			Driver:         d.driver,
			Clock:          d.clock,
			Perms:          d.perms,
			Seed:           d.cfg.Seed,
			UniversalQuota: d.cfg.UniversalQuota,
			ExtraBootRefs:  bootRefs(meta.Name),
		}, d.sm)
		if err != nil {
			return fmt.Errorf("device: starting %s: %w", meta.Name, err)
		}
		d.services[meta.Name] = svc
		d.svcOrder = append(d.svcOrder, meta.Name)
		d.handleIndex[d.driver.HandleOf(svc.Stub())] = handleEntry{kind: "system", sys: svc, name: meta.Name}
	}
	d.invalidateResolve()
	return nil
}

// installPrebuilts installs the Table IV core apps and publishes their
// vulnerable services. (Re)publication also runs after soft reboots.
func (d *Device) installPrebuilts() error {
	if d.apps.ByPackage("com.android.bluetooth") == nil {
		if _, err := d.apps.InstallWithUid("com.android.bluetooth", BluetoothUid); err != nil {
			return err
		}
		if _, err := d.apps.InstallWithUid("com.svox.pico", PicoTtsUid); err != nil {
			return err
		}
	}
	return d.publishPrebuiltServices()
}

func (d *Device) publishPrebuiltServices() error {
	d.appServices = make(map[string]*apps.AppService)
	d.appOrder = nil
	grouped := make(map[string][]catalog.AppInterface)
	var order []string
	for _, row := range catalog.PrebuiltAppInterfaces() {
		name := apps.AppServiceName(row)
		if _, ok := grouped[name]; !ok {
			order = append(order, name)
		}
		grouped[name] = append(grouped[name], row)
	}
	for _, name := range order {
		rows := grouped[name]
		owner := d.apps.ByPackage(rows[0].Package)
		if owner == nil {
			return fmt.Errorf("device: prebuilt %s not installed", rows[0].Package)
		}
		d.appReg.Unpublish(name)
		svc, err := apps.NewAppService(owner, d.driver, d.clock, d.appReg, rows, d.cfg.Seed)
		if err != nil {
			return fmt.Errorf("device: publishing %s: %w", name, err)
		}
		d.appServices[name] = svc
		d.appOrder = append(d.appOrder, name)
		d.handleIndex[d.driver.HandleOf(svc.Stub())] = handleEntry{kind: "app", app: svc, name: name}
	}
	d.invalidateResolve()
	return nil
}

// spawnBaselineFillers brings the process count up to the stock-Android
// level (Fig. 4's 382) with inert native daemons.
func (d *Device) spawnBaselineFillers() {
	for i := d.kern.RunningCount(); i < DefaultBaselineProcesses; i++ {
		d.kern.Spawn(kernel.SpawnConfig{
			Name:        fmt.Sprintf("daemon%d", i),
			Uid:         kernel.RootUid,
			OomScoreAdj: kernel.PersistentProcAdj,
			MemoryKB:    1024,
		})
	}
}

// restartSystem is the soft-reboot recovery: after system_server dies the
// ServiceManager registry is rebuilt with fresh service instances (and
// fresh, empty JGR tables).
func (d *Device) restartSystem(reason string) {
	d.sm.Clear()
	if err := d.startSystem(); err != nil {
		panic(fmt.Sprintf("device: soft reboot failed: %v", err))
	}
	// Prebuilt app processes died with the reboot; restart and republish.
	if err := d.publishPrebuiltServices(); err != nil {
		panic(fmt.Sprintf("device: republishing prebuilts failed: %v", err))
	}
	if d.cfg.InstallThirdPartyApps {
		if err := d.publishThirdPartyServices(); err != nil {
			panic(fmt.Sprintf("device: republishing third-party apps failed: %v", err))
		}
	}
	d.spawnBaselineFillers()
	d.attachTraceVMs()
	for _, fn := range d.onReboot {
		fn(reason)
	}
}

// Accessors.

// Clock returns the device's virtual clock.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// BootConfig returns the configuration this device was booted with.
// Boot(dev.BootConfig()) yields an identical fresh device — the
// isolation primitive behind the parallel experiment engine.
func (d *Device) BootConfig() Config { return d.cfg }

// Kernel returns the simulated kernel.
func (d *Device) Kernel() *kernel.Kernel { return d.kern }

// Driver returns the binder driver.
func (d *Device) Driver() *binder.Driver { return d.driver }

// FaultInjector returns the telemetry fault injector, nil on an
// unfaulted device.
func (d *Device) FaultInjector() *faults.Injector { return d.driver.FaultInjector() }

// ServiceManager returns the binder registry.
func (d *Device) ServiceManager() *binder.ServiceManager { return d.sm }

// Permissions returns the permission manager.
func (d *Device) Permissions() *permissions.Manager { return d.perms }

// Apps returns the app installer.
func (d *Device) Apps() *apps.Manager { return d.apps }

// AppServices returns the app-service registry.
func (d *Device) AppServices() *apps.ServiceRegistry { return d.appReg }

// SystemServer returns the current system_server process.
func (d *Device) SystemServer() *kernel.Process { return d.systemServer }

// Service returns a running system service by registry name.
func (d *Device) Service(name string) *services.Service { return d.services[name] }

// AppService returns a published app service by registry name.
func (d *Device) AppService(name string) *apps.AppService { return d.appServices[name] }

// SoftReboots returns how many soft reboots the device has survived, as
// the kernel counts them.
func (d *Device) SoftReboots() int { return d.kern.SoftReboots() }

// OnReboot registers fn to run after each completed soft-reboot recovery.
func (d *Device) OnReboot(fn func(reason string)) { d.onReboot = append(d.onReboot, fn) }

// NewClient opens a raw binder client on a system service for app,
// pre-configured with the device's client retry policy when one is set.
func (d *Device) NewClient(a *apps.App, serviceName string) (*services.Client, error) {
	c, err := services.NewClient(d.sm, d.driver, a.Start(), a.Package(), serviceName)
	if err != nil {
		return nil, err
	}
	if d.clientRetry != (services.RetryPolicy{}) {
		c.SetRetry(d.clientRetry)
	}
	return c, nil
}

// SetClientRetry installs a dead-handle retry policy applied to every
// client subsequently opened through NewClient. The zero value restores
// the fail-fast default.
func (d *Device) SetClientRetry(p services.RetryPolicy) { d.clientRetry = p }

// HostNames returns the dedicated service host processes (sorted,
// excluding system_server) — the supervisor's restart targets.
func (d *Device) HostNames() []string {
	out := make([]string, 0, len(d.hosts))
	for name := range d.hosts {
		if name == kernel.SystemServerName {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Host returns a service host process by name (nil if unknown).
func (d *Device) Host(name string) *kernel.Process { return d.hosts[name] }

// OnServiceRestart registers fn to run after each completed service
// re-registration (kind is "host" or "app", name the host process or
// app-service registry name). The defense layer uses it to re-attach
// JGR monitors to replacement host processes.
func (d *Device) OnServiceRestart(fn func(kind, name string)) {
	d.onServiceRestart = append(d.onServiceRestart, fn)
}

func (d *Device) fireServiceRestart(kind, name string) {
	for _, fn := range d.onServiceRestart {
		fn(kind, name)
	}
}

// RestartHost revives a crashed dedicated host process and re-registers
// every census service it carries — the supervisor's recovery action,
// modelling init respawning a persistent service. system_server is not
// restartable this way (that path is the soft reboot); a host that is
// still alive is a no-op. Old handle-index entries are retained so IPC
// records from before the crash still resolve to the dead incarnation.
func (d *Device) RestartHost(name string) error {
	if name == kernel.SystemServerName {
		return fmt.Errorf("device: %s restarts via soft reboot, not RestartHost", name)
	}
	host, ok := d.hosts[name]
	if !ok {
		return fmt.Errorf("device: unknown host %s", name)
	}
	if host.Alive() {
		return nil
	}
	host = d.kern.Spawn(kernel.SpawnConfig{
		Name:        name,
		Uid:         kernel.SystemUid,
		OomScoreAdj: kernel.PersistentProcAdj,
		MemoryKB:    30 * 1024,
	})
	d.hosts[name] = host
	for _, meta := range catalog.Services() {
		if meta.HostProcess() != name {
			continue
		}
		d.sm.RemoveService(meta.Name)
		svc, err := services.New(services.Config{
			Meta:           meta,
			Ifaces:         catalog.InterfacesForService(meta.Name),
			Host:           host,
			Driver:         d.driver,
			Clock:          d.clock,
			Perms:          d.perms,
			Seed:           d.cfg.Seed,
			UniversalQuota: d.cfg.UniversalQuota,
			ExtraBootRefs:  bootRefs(meta.Name),
		}, d.sm)
		if err != nil {
			return fmt.Errorf("device: restarting %s on %s: %w", meta.Name, name, err)
		}
		d.services[meta.Name] = svc
		d.handleIndex[d.driver.HandleOf(svc.Stub())] = handleEntry{kind: "system", sys: svc, name: meta.Name}
	}
	d.invalidateResolve()
	if d.rec != nil {
		host.VM().SetTraceRecorder(d.rec, int32(host.Pid()))
	}
	d.fireServiceRestart("host", name)
	return nil
}

// RestartAppService revives a crashed app service: the owning app is
// relaunched and the stub re-published under the same registry name. A
// still-alive stub is a no-op.
func (d *Device) RestartAppService(name string) error {
	old, ok := d.appServices[name]
	if !ok {
		return fmt.Errorf("device: unknown app service %s", name)
	}
	if old.Stub().IsAlive() {
		return nil
	}
	var rows []catalog.AppInterface
	for _, row := range catalog.PrebuiltAppInterfaces() {
		if apps.AppServiceName(row) == name {
			rows = append(rows, row)
		}
	}
	if d.cfg.InstallThirdPartyApps {
		for _, row := range catalog.ThirdPartyAppInterfaces() {
			if apps.AppServiceName(row) == name {
				rows = append(rows, row)
			}
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("device: no catalog rows for app service %s", name)
	}
	owner := d.apps.ByPackage(rows[0].Package)
	if owner == nil {
		return fmt.Errorf("device: app %s not installed", rows[0].Package)
	}
	d.appReg.Unpublish(name)
	svc, err := apps.NewAppService(owner, d.driver, d.clock, d.appReg, rows, d.cfg.Seed)
	if err != nil {
		return fmt.Errorf("device: republishing %s: %w", name, err)
	}
	d.appServices[name] = svc
	d.handleIndex[d.driver.HandleOf(svc.Stub())] = handleEntry{kind: "app", app: svc, name: name}
	d.invalidateResolve()
	d.fireServiceRestart("app", name)
	return nil
}

// Resolve attributes a logged IPC record's (handle, code) — the only
// fields attribution reads — to its target interface. The defender uses
// this exactly as the paper's defender uses the servicemanager +
// framework metadata: handle → service, code → method. Results (hits
// and misses alike) are memoized per (handle, code); the memo is dropped
// whenever the handle index changes, so a record from before a service
// restart resolves exactly as it did uncached.
func (d *Device) Resolve(handle binder.Handle, code binder.TxCode) (IPCTarget, bool) {
	key := resolveKey{handle: handle, code: code}
	d.resolveMu.RLock()
	res, hit := d.resolveMemo[key]
	d.resolveMu.RUnlock()
	if hit {
		return res.target, res.ok
	}
	t, ok := d.resolveUncached(handle, code)
	d.resolveMu.Lock()
	if d.resolveMemo == nil {
		d.resolveMemo = make(map[resolveKey]resolveResult)
	}
	d.resolveMemo[key] = resolveResult{target: t, ok: ok}
	d.resolveMu.Unlock()
	return t, ok
}

func (d *Device) resolveUncached(handle binder.Handle, code binder.TxCode) (IPCTarget, bool) {
	he, ok := d.handleIndex[handle]
	if !ok {
		return IPCTarget{}, false
	}
	t := IPCTarget{Kind: he.kind, Service: he.name}
	switch he.kind {
	case "system":
		m, ok := he.sys.MethodName(code)
		if !ok {
			return IPCTarget{}, false
		}
		t.Method = m
		if row, ok := catalog.InterfaceByName(he.name + "." + m); ok {
			t.Catalogued = &row
		}
	case "app":
		m, ok := he.app.MethodName(code)
		if !ok {
			return IPCTarget{}, false
		}
		t.Method = m
		for _, row := range catalog.PrebuiltAppInterfaces() {
			if apps.AppServiceName(row) == he.name && row.FullName() != "" {
				r := row
				t.AppRow = &r
				break
			}
		}
	}
	return t, true
}

// bootRefs is how many long-lived internal JGR pins the named service
// holds from boot: 8–20 per service, a deterministic spread over its
// name, which across 104 services yields the 1,000–3,000 baseline JGR
// table of Fig. 4.
func bootRefs(service string) int {
	var h uint32 = 2166136261
	for i := 0; i < len(service); i++ {
		h = (h ^ uint32(service[i])) * 16777619
	}
	return int(8 + h%13)
}

// RegisterBroadcastReceiver models the non-Binder IPC surfaces the paper's
// §VI lists as analysis blind spots (unprotected broadcast receivers,
// ASHMEM, sockets): the registration pins JGR entries in system_server
// without any binder transaction, so neither the static pipeline (which
// enumerates binder IPC methods) nor the defender's IPC log sees the
// cause. Entries are released when the registering process dies.
func (d *Device) RegisterBroadcastReceiver(proc *kernel.Process) error {
	if proc == nil || !proc.Alive() {
		return fmt.Errorf("device: dead registrant")
	}
	d.broadcastSeq++
	obj := &art.Object{ID: art.ObjectID(1<<40 + d.broadcastSeq), Class: "android.content.BroadcastReceiver"}
	ref, err := d.systemServer.VM().AddGlobalRef(obj)
	if err != nil {
		return err
	}
	ss := d.systemServer
	proc.NotifyDeath(func(*kernel.Process) {
		if ss.Alive() {
			_ = ss.VM().DeleteGlobalRef(ref)
		}
	})
	return nil
}
