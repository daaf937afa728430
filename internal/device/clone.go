package device

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/permissions"
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
	gcTrigger         int
	faults            faults.Config
	universalQuota    int
	installThirdParty bool
	traceCfg          trace.Config
}

// templateKeyOf reduces cfg to its template key.
func templateKeyOf(cfg Config) templateKey {
	return templateKey{
		maxGlobalRefs:     cfg.ServerVM.MaxGlobalRefs,
		gcTrigger:         cfg.ServerVM.GCTrigger,
		faults:            cfg.Faults,
		universalQuota:    cfg.UniversalQuota,
		installThirdParty: cfg.InstallThirdPartyApps,
		traceCfg:          cfg.Trace,
	}
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
// rejects further Spawn/Kill, and every process VM's global table is
// frozen copy-on-write. Nothing else needs sealing: a clone copies the
// ServiceManager's map and the handle index before its first write to
// either, and the permission definitions are never written. Snapshot is
// meant for a boot-quiescent device (no transactions run yet); it is
// idempotent, one-way, and must not race with clones — call it once
// before handing the template to concurrent cloners.
func (d *Device) Snapshot() {
	if d.sealed {
		return
	}
	d.sealed = true
	d.kern.Seal()
}

// Clone returns a copy-on-write clone of the device with the same seed.
// See CloneWithSeed.
func (d *Device) Clone() (*Device, error) { return d.CloneWithSeed(d.cfg.Seed) }

// template resolves the sealed clone template for cfg through the
// cache, booting and sealing one if the shape is new. It returns
// (nil, nil) under SetCloneBoot(false), in which case callers must fall
// back to BootFresh. A Slot uses this to pin a template once per worker
// instead of re-consulting the cache on every trial.
func template(cfg Config) (*Device, error) {
	key := templateKeyOf(cfg)
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
// come from the kernel snapshot, immutable service metadata and the
// handle index are shared, and only the mutable shells — driver, service
// manager, stubs, per-run rng seeds — are rebuilt, in boot order, so
// driver ids and handles replay identically. The clone runs on its own
// virtual clock and is byte-for-byte equivalent to BootFresh with the
// same config and seed. Snapshot is taken automatically on first use;
// taking it here is not safe against concurrent clones, so pre-Snapshot
// templates that fan out across goroutines.
func (d *Device) CloneWithSeed(seed int64) (*Device, error) {
	return d.cloneWithSeed(seed, nil)
}

// cloneWithSeed is CloneWithSeed with allocation recycling: prev, when
// non-nil, must be a retired clone of this same sealed template whose
// device is no longer referenced anywhere. Its host and service slices,
// slabs, kernel and driver storage and the generators its Rand handed
// out are rewound and the new device is
// rebuilt in place through the same boot-order replay as a cold clone,
// so the result is byte-identical to one — this is the fleet Slot's
// per-trial reseed path. Neither path writes a name table: both take the
// template's handle index as it is. Passing a prev that is still in use
// corrupts both devices.
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
		*nd = Device{
			cfg:         d.cfg,
			kern:        nd.kern,
			driver:      nd.driver,
			perms:       nd.perms,
			apps:        nd.apps,
			rec:         nd.rec,
			hosts:       nd.hosts[:0],
			services:    nd.services[:0],
			appServices: nd.appServices[:0],
			svcSlab:     nd.svcSlab,
			appSlab:     nd.appSlab,
			rands:       nd.rands[:0],
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
	// — what the recycled-slot-vs-fresh-boot byte-identity tests assert.
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

	// Hosts materialize in the template's spawn order, after the apps in
	// uid order, so the process table grows in the same steps on every
	// clone. The slice is the clone's own: a soft reboot rewinds it.
	nd.hosts = slices.Grow(nd.hosts, len(d.hosts))
	for _, p := range d.hosts {
		nd.hosts = append(nd.hosts, nd.kern.Process(p.Pid()))
	}

	// Census services replay in the template's catalog order, then app
	// services in its publish order, each into one slab allocation. Each
	// HandleOf mints its stub's node in boot order, so every handle equals
	// the template's and the clone reads the template's handle index. A
	// service's host and an app service's owner are found by the
	// template's pid and uid.
	nd.handleIndex = d.handleIndex
	nd.svcSlab = slices.Grow(nd.svcSlab[:0], len(d.services))[:len(d.services)]
	nd.services = slices.Grow(nd.services, len(d.services))
	for i, tmpl := range d.services {
		svc := &nd.svcSlab[i]
		tmpl.CloneInto(svc, nd.kern.Process(tmpl.Host().Pid()), nd.driver, nd.clock, nd.perms, seed)
		nd.driver.HandleOf(svc.Stub())
		nd.services = append(nd.services, svc)
	}
	nd.appSlab = slices.Grow(nd.appSlab[:0], len(d.appServices))[:len(d.appServices)]
	nd.appServices = slices.Grow(nd.appServices, len(d.appServices))
	for i, tmpl := range d.appServices {
		owner := nd.apps.ByUid(tmpl.Owner().Uid())
		if owner == nil {
			return nil, fmt.Errorf("device: clone template missing app %s", tmpl.Owner().Package())
		}
		svc := &nd.appSlab[i]
		tmpl.CloneInto(svc, owner, nd.driver, nd.clock, seed)
		nd.driver.HandleOf(svc.Stub())
		nd.appServices = append(nd.appServices, svc)
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
