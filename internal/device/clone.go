package device

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/services"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// The clone-template cache behind Boot: one sealed, fully-booted device
// per configuration shape. Booting a device costs milliseconds (104
// services, ~382 processes); cloning one costs microseconds, because
// every layer shares the template's state copy-on-write. The cache is
// deliberately tiny — experiment sweeps use a handful of configuration
// shapes with many seeds each.
var (
	cloneBootMu   sync.Mutex
	cloneBootOff  bool
	templates     = map[templateKey]*Device{}
	templateOrder []templateKey
)

const maxTemplates = 4

// templateKey is the comparable, seed-independent shape of a Config.
// Seed is deliberately excluded: boot consumes no random draws (jitter
// rngs seed lazily on first use), so devices differing only by seed can
// share one template and be re-keyed at clone time.
type templateKey struct {
	maxGlobalRefs     int
	maxWeakGlobalRefs int
	gcTrigger         int
	faults            faults.Config
	universalQuota    int
	installThirdParty bool
	traceCfg          trace.Config
}

// templateKeyOf reduces cfg to its template key. A configuration
// carrying a caller-supplied abort hook is not cacheable — the hook is
// per-device state a template cannot share.
func templateKeyOf(cfg Config) (templateKey, bool) {
	if cfg.ServerVM.OnAbort != nil {
		return templateKey{}, false
	}
	return templateKey{
		maxGlobalRefs:     cfg.ServerVM.MaxGlobalRefs,
		maxWeakGlobalRefs: cfg.ServerVM.MaxWeakGlobalRefs,
		gcTrigger:         cfg.ServerVM.GCTrigger,
		faults:            cfg.Faults,
		universalQuota:    cfg.UniversalQuota,
		installThirdParty: cfg.InstallThirdPartyApps,
		traceCfg:          cfg.Trace,
	}, true
}

// SetCloneBoot enables or disables the clone-template cache behind Boot
// and clears it. Disabled, every Boot builds a device from scratch
// (equivalence tests use this to compare clone against fresh boots).
func SetCloneBoot(enabled bool) {
	cloneBootMu.Lock()
	defer cloneBootMu.Unlock()
	cloneBootOff = !enabled
	templates = map[templateKey]*Device{}
	templateOrder = nil
}

// Snapshot seals the device as an immutable clone template: the kernel
// rejects further Spawn/Kill, every process VM's reference tables are
// frozen copy-on-write, and the permission definition map is marked
// shared. Snapshot is meant for a boot-quiescent device (no transactions
// run yet); it is idempotent, one-way, and must not race with clones —
// call it once before handing the template to concurrent cloners.
func (d *Device) Snapshot() {
	if d.sealed {
		return
	}
	d.sealed = true
	d.kern.Seal()
	d.perms.Freeze()
}

// Clone returns a copy-on-write clone of the device with the same seed.
// See CloneWithSeed.
func (d *Device) Clone() (*Device, error) { return d.CloneWithSeed(d.cfg.Seed) }

// Template resolves the sealed clone template for cfg through the same
// cache Boot uses, booting and sealing one if the shape is new. It
// returns (nil, nil) when no template is possible — the configuration
// carries an abort hook, or SetCloneBoot(false) is in effect — in
// which case callers must fall back to BootFresh. The fleet Slot uses
// this to pin a template once per worker instead of re-consulting the
// cache on every trial.
func Template(cfg Config) (*Device, error) {
	key, cacheable := templateKeyOf(cfg)
	if !cacheable {
		return nil, nil
	}
	cloneBootMu.Lock()
	defer cloneBootMu.Unlock()
	if cloneBootOff {
		return nil, nil
	}
	tmpl := templates[key]
	if tmpl == nil {
		var err error
		tmpl, err = BootFresh(cfg)
		if err != nil {
			return nil, err
		}
		tmpl.Snapshot()
		if len(templateOrder) >= maxTemplates {
			delete(templates, templateOrder[0])
			templateOrder = templateOrder[1:]
		}
		templates[key] = tmpl
		templateOrder = append(templateOrder, key)
	}
	return tmpl, nil
}

// CloneWithSeed builds a device sharing this (sealed) device's boot
// state copy-on-write: the process table and every VM's reference tables
// come from the kernel snapshot, immutable service metadata is shared,
// and only the mutable shells — driver, service manager, stubs, per-run
// rng seeds — are rebuilt, in boot order, so driver ids and handles
// replay identically. The clone runs on its own virtual clock and is
// byte-for-byte equivalent to BootFresh with the same config and seed.
// Snapshot is taken automatically on first use; taking it here is not
// safe against concurrent clones, so pre-Snapshot templates that fan
// out across goroutines.
func (d *Device) CloneWithSeed(seed int64) (*Device, error) {
	return d.cloneWithSeed(seed, nil)
}

// cloneWithSeed is CloneWithSeed with allocation recycling: prev, when
// non-nil, must be a retired clone of this same sealed template whose
// device is no longer referenced anywhere. Its maps, slabs, kernel and
// driver storage are rewound and the new device is rebuilt in place
// through the same boot-order replay as a cold clone, so the result is
// byte-identical to one — this is the fleet Slot's per-trial reseed
// path. Passing a prev that is still in use corrupts both
// devices.
func (d *Device) cloneWithSeed(seed int64, prev *Device) (*Device, error) {
	if !d.sealed {
		d.Snapshot()
	}
	nd := prev
	if nd != nil {
		if nd.sealed {
			return nil, fmt.Errorf("device: recycling a sealed template")
		}
		// Harvest the retired clone's storage, rewound in place; the
		// zeroing assignment below drops everything else.
		hosts, svcMap, appSvcMap, handleIdx := nd.hosts, nd.services, nd.appServices, nd.handleIndex
		clear(hosts)
		clear(svcMap)
		clear(appSvcMap)
		clear(handleIdx)
		*nd = Device{
			cfg:         d.cfg,
			kern:        nd.kern,
			driver:      nd.driver,
			perms:       nd.perms,
			apps:        nd.apps,
			appReg:      nd.appReg,
			rec:         nd.rec,
			hosts:       hosts,
			services:    svcMap,
			appServices: appSvcMap,
			handleIndex: handleIdx,
			svcSlab:     nd.svcSlab[:0],
			appSlab:     nd.appSlab[:0],
			appOrder:    nd.appOrder[:0],
		}
	} else {
		nd = &Device{cfg: d.cfg}
	}
	nd.cfg.Seed = seed
	nd.clock = simclock.New()
	nd.clock.AdvanceTo(d.clock.Now())

	// Flight recorder: the recycle path rewinds the harvested ring in
	// place and re-keys the trace-ID mint; a cold clone allocates one.
	// Either way the clone's span stream is a pure function of (cfg, seed)
	// — what the cross-slot-mode byte-identity suite asserts.
	if nd.cfg.Trace.Enabled {
		if nd.rec != nil {
			nd.rec.Reset(seed)
		} else {
			nd.rec = newRecorder(nd.cfg)
		}
	} else {
		nd.rec = nil
	}

	// The binder driver re-registers its kill observer inside
	// binder.NewReusing, as at boot.
	nd.kern = d.kern.CloneReusing(nd.kern, nd.clock, nd.restartSystem)

	// Telemetry is deferred: Metrics() builds the registry and attaches
	// the driver's instruments on first use, keeping the clone path free
	// of the ~120 gauge registrations a boot pays eagerly.
	var dcfg binder.Config
	if nd.cfg.Faults.Enabled() {
		if err := nd.cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		dcfg.Faults = faults.New(nd.cfg.Faults, seed)
	}
	nd.driver = binder.NewReusing(nd.driver, nd.kern, dcfg)
	nd.driver.SetRecorder(nd.rec)
	nd.sm = d.sm.Clone(nd.driver)

	if nd.perms == nil {
		nd.perms = new(permissions.Manager)
	}
	d.perms.CloneInto(nd.perms)
	if nd.apps == nil {
		nd.apps = new(apps.Manager)
	}
	d.apps.CloneInto(nd.apps, nd.kern, nd.perms)
	if nd.appReg == nil {
		nd.appReg = apps.NewServiceRegistry(nd.driver)
	} else {
		nd.appReg.ResetFor(nd.driver)
	}

	if nd.hosts == nil {
		nd.hosts = make(map[string]*kernel.Process, len(d.hosts))
	}
	for name, p := range d.hosts {
		nd.hosts[name] = nd.kern.Process(p.Pid())
	}
	nd.systemServer = nd.hosts[kernel.SystemServerName]

	// System services replay in recorded creation order — the same order
	// startSystem walked the catalog — into one slab allocation. The
	// template's own bookkeeping (svcOrder, Host().Name()) stands in for
	// the census so the hot path never copies it.
	if nd.services == nil {
		nd.services = make(map[string]*services.Service, len(d.services))
		nd.handleIndex = make(map[binder.Handle]handleEntry, len(d.handleIndex))
	}
	nd.svcOrder = d.svcOrder
	if cap(nd.svcSlab) < len(d.svcOrder) {
		nd.svcSlab = make([]services.Service, len(d.svcOrder))
	} else {
		nd.svcSlab = nd.svcSlab[:len(d.svcOrder)]
	}
	for i, name := range d.svcOrder {
		tmpl := d.services[name]
		if tmpl == nil {
			return nil, fmt.Errorf("device: clone template missing service %s", name)
		}
		svc := &nd.svcSlab[i]
		tmpl.CloneInto(svc, nd.hosts[tmpl.Host().Name()], nd.driver, nd.clock, nd.perms, seed)
		nd.services[name] = svc
		nd.handleIndex[nd.driver.HandleOf(svc.Stub())] = handleEntry{kind: "system", sys: svc, name: name}
	}

	// App services replay in recorded publish order.
	if nd.appServices == nil {
		nd.appServices = make(map[string]*apps.AppService, len(d.appServices))
	}
	nd.appOrder = append(nd.appOrder, d.appOrder...)
	if cap(nd.appSlab) < len(d.appOrder) {
		nd.appSlab = make([]apps.AppService, len(d.appOrder))
	} else {
		nd.appSlab = nd.appSlab[:len(d.appOrder)]
	}
	for i, name := range d.appOrder {
		tmpl := d.appServices[name]
		owner := nd.apps.ByPackage(tmpl.Owner().Package())
		if owner == nil {
			return nil, fmt.Errorf("device: clone template missing app %s", tmpl.Owner().Package())
		}
		svc := &nd.appSlab[i]
		if err := tmpl.CloneInto(svc, owner, nd.driver, nd.clock, nd.appReg, seed); err != nil {
			return nil, fmt.Errorf("device: cloning app service %s: %w", name, err)
		}
		nd.appServices[name] = svc
		nd.handleIndex[nd.driver.HandleOf(svc.Stub())] = handleEntry{kind: "app", app: svc, name: name}
	}

	if got, want := nd.driver.NodeCount(), d.driver.NodeCount(); got != want {
		return nil, fmt.Errorf("device: clone replay minted %d binder nodes, template has %d", got, want)
	}

	nd.broadcastSeq = d.broadcastSeq
	nd.attachTraceVMs()

	if err := nd.kern.ProcFS().CreateProvider(MetricsPath, kernel.RootUid, false, func() []byte {
		return nd.Metrics().RenderProm()
	}); err != nil {
		return nil, err
	}
	return nd, nil
}
