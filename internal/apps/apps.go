// Package apps models Android applications: installed packages with their
// own uid and process, permission grants, and — for the paper's Tables IV
// and V — apps that themselves expose vulnerable IPC interfaces (prebuilt
// core apps like Bluetooth and PicoTts, whose services extend framework
// base classes such as android.speech.tts.TextToSpeechService, and
// vulnerable third-party apps found on Google Play).
package apps

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/simclock"
	"repro/internal/xrand"
)

// FirstInstalledUid is the uid of the first installed app. The paper's
// Fig. 9 experiment shows colluding apps with uids 10059–10065; starting
// the installer here makes the reproduction's uids line up.
const FirstInstalledUid kernel.Uid = 10059

// App is one installed application.
type App struct {
	pkg  string
	uid  kernel.Uid
	proc *kernel.Process
	mgr  *Manager
}

// Package returns the app's package name.
func (a *App) Package() string { return a.pkg }

// Uid returns the app's uid.
func (a *App) Uid() kernel.Uid { return a.uid }

// Proc returns the app's current process (nil if not running).
func (a *App) Proc() *kernel.Process {
	if a.proc != nil && a.proc.Alive() {
		return a.proc
	}
	return nil
}

// Running reports whether the app has a live process.
func (a *App) Running() bool { return a.Proc() != nil }

// LastExitReason returns the kill reason of the app's most recent dead
// process ("" while running or never started). Restart-aware workload
// actors use it to distinguish lifecycle-chaos deaths, which they
// recover from, from LMK or defender kills, which they do not.
func (a *App) LastExitReason() string {
	if a.proc == nil || a.proc.Alive() {
		return ""
	}
	return a.proc.ExitReason()
}

// Start (re)launches the app's process if needed and returns it. Apps are
// restartable after LMK kills, defender force-stops, or soft reboots.
func (a *App) Start() *kernel.Process {
	if p := a.Proc(); p != nil {
		return p
	}
	a.proc = a.mgr.k.Spawn(kernel.SpawnConfig{
		Name:        a.pkg,
		Uid:         a.uid,
		OomScoreAdj: kernel.ForegroundAppAdj,
	})
	return a.proc
}

// SetBackground moves the app to a cached LMK priority, as pressing HOME
// does in the paper's MonkeyRunner workload.
func (a *App) SetBackground() {
	if p := a.Proc(); p != nil {
		p.SetOomScoreAdj(kernel.CachedAppMinAdj)
	}
}

// SetForeground gives the app foreground priority.
func (a *App) SetForeground() {
	if p := a.Proc(); p != nil {
		p.SetOomScoreAdj(kernel.ForegroundAppAdj)
	}
}

// ForceStop kills the app's process — the "am force-stop" the JGRE
// Defender issues against top-ranked suspects (paper §V-B).
func (a *App) ForceStop(reason string) {
	if p := a.Proc(); p != nil {
		a.mgr.k.Kill(p.Pid(), reason)
	}
}

// Manager installs apps and tracks them by uid and package.
type Manager struct {
	k       *kernel.Kernel
	perms   *permissions.Manager
	nextUid kernel.Uid
	byPkg   map[string]*App
	byUid   map[kernel.Uid]*App
	// appSlab backs the App headers CloneInto mints for a clone; a
	// recycled clone rewinds and refills it in place.
	appSlab []App
}

// NewManager creates an installer.
func NewManager(k *kernel.Kernel, perms *permissions.Manager) *Manager {
	return &Manager{
		k:       k,
		perms:   perms,
		nextUid: FirstInstalledUid,
		byPkg:   make(map[string]*App),
		byUid:   make(map[kernel.Uid]*App),
	}
}

// CloneInto populates dst as a copy of the installer for a snapshot
// clone: every App is re-minted against the clone's kernel (resolving
// its process by pid, which materializes it copy-on-write) and the
// clone's permission manager. Map iteration order is safe here — no
// sequential ids are minted during the copy. A dst carrying maps from
// a retired clone (the fleet slot recycle path) has them rewound and
// reused in place.
func (m *Manager) CloneInto(dst *Manager, k *kernel.Kernel, perms *permissions.Manager) {
	byPkg, byUid := dst.byPkg, dst.byUid
	if byPkg == nil {
		byPkg = make(map[string]*App, len(m.byPkg))
		byUid = make(map[kernel.Uid]*App, len(m.byUid))
	} else {
		clear(byPkg)
		clear(byUid)
	}
	slab := dst.appSlab[:0]
	if cap(slab) < len(m.byPkg) {
		slab = make([]App, 0, len(m.byPkg))
	}
	*dst = Manager{
		k:       k,
		perms:   perms,
		nextUid: m.nextUid,
		byPkg:   byPkg,
		byUid:   byUid,
	}
	for pkg, a := range m.byPkg {
		slab = append(slab, App{pkg: pkg, uid: a.uid, mgr: dst})
		na := &slab[len(slab)-1]
		if p := a.proc; p != nil && p.Alive() {
			na.proc = k.Process(p.Pid())
		}
		dst.byPkg[pkg] = na
		dst.byUid[na.uid] = na
	}
	dst.appSlab = slab
}

// ErrAlreadyInstalled reports a duplicate package install.
var ErrAlreadyInstalled = errors.New("apps: package already installed")

// Install registers a package, assigns it the next uid, and grants the
// requested permissions (normal ones silently, dangerous ones as if the
// user approved — the paper's attacker model allows both levels).
func (m *Manager) Install(pkg string, wants ...permissions.Permission) (*App, error) {
	if pkg == "" {
		return nil, errors.New("apps: empty package name")
	}
	if _, ok := m.byPkg[pkg]; ok {
		return nil, fmt.Errorf("install %s: %w", pkg, ErrAlreadyInstalled)
	}
	a := &App{pkg: pkg, uid: m.nextUid, mgr: m}
	m.nextUid++
	for _, p := range wants {
		if err := m.perms.Grant(a.uid, p); err != nil {
			return nil, fmt.Errorf("install %s: %w", pkg, err)
		}
	}
	m.byPkg[pkg] = a
	m.byUid[a.uid] = a
	return a, nil
}

// ByPackage returns the installed app, or nil.
func (m *Manager) ByPackage(pkg string) *App { return m.byPkg[pkg] }

// ByUid returns the installed app owning uid, or nil.
func (m *Manager) ByUid(uid kernel.Uid) *App { return m.byUid[uid] }

// Installed returns all installed apps sorted by uid.
func (m *Manager) Installed() []*App {
	out := make([]*App, 0, len(m.byPkg))
	for _, a := range m.byPkg {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].uid < out[j].uid })
	return out
}

// ServiceRegistry resolves app-exported services, standing in for the
// bindService/intent-resolution path through which third-party apps reach
// a prebuilt app's IPC interfaces (e.g. ITextToSpeechService).
type ServiceRegistry struct {
	driver *binder.Driver
	byName map[string]*binder.LocalBinder
}

// NewServiceRegistry creates an empty registry.
func NewServiceRegistry(d *binder.Driver) *ServiceRegistry {
	return &ServiceRegistry{driver: d, byName: make(map[string]*binder.LocalBinder)}
}

// ResetFor rewinds the registry for reuse against a new driver, keeping
// the name map's storage. The fleet slot recycle path uses it to carry a
// retired clone's registry into the next trial.
func (r *ServiceRegistry) ResetFor(d *binder.Driver) {
	r.driver = d
	clear(r.byName)
}

// Publish exports an app service binder under "pkg/Class".
func (r *ServiceRegistry) Publish(name string, b *binder.LocalBinder) error {
	if _, ok := r.byName[name]; ok {
		return fmt.Errorf("apps: service %q already published", name)
	}
	r.byName[name] = b
	return nil
}

// Bind returns client's proxy on the named app service.
func (r *ServiceRegistry) Bind(name string, client *kernel.Process) (*binder.BinderRef, error) {
	b, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("apps: no service %q", name)
	}
	if !b.IsAlive() {
		return nil, binder.ErrDeadObject
	}
	return r.driver.Materialize(client, b)
}

// Names lists published services, sorted.
func (r *ServiceRegistry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Unpublish removes a registration (on app death/reinstall).
func (r *ServiceRegistry) Unpublish(name string) { delete(r.byName, name) }

// AppService is an IPC service exported by an app. Its vulnerable methods
// come from the catalog's Table IV/V rows; like
// TextToSpeechService.setCallback, each call retains the caller's binder
// until the *calling* app exits.
type AppService struct {
	owner *App
	clock *simclock.Clock

	// rng seeds lazily on the first jitter draw (see services.Service);
	// seedMix is the per-service seed component for re-keying clones.
	rng     *rand.Rand
	rngSeed int64
	seedMix int64

	stub *binder.LocalBinder
	// transactor caches the dispatch closure handed to the driver; it
	// binds only the AppService pointer, stable for a slab entry, so a
	// recycled clone reuses it (see services.Service.transactor).
	transactor binder.Transactor
	regName    string
	methods    Methods
	codes      map[string]binder.TxCode
	// entries holds retained callbacks per short method name, each list
	// in registration order.
	entries map[string]*binder.CallbackList[struct{}]
	calls   uint64
}

// Methods is an app service's method table, code → catalog row. It is
// built once per publication and never written after, so every clone of
// the service and the device's handle index read the same one.
type Methods map[binder.TxCode]catalog.AppInterface

// Name resolves a code to its short method name ("setCallback").
func (m Methods) Name(code binder.TxCode) (string, bool) {
	ai, ok := m[code]
	if !ok {
		return "", false
	}
	return methodNameOf(ai.Method), true
}

// AppServiceName returns the registry name an app interface is published
// under.
func AppServiceName(ai catalog.AppInterface) string {
	return ai.Package + "/" + serviceClassOf(ai.Method)
}

// serviceClassOf extracts "PicoService" from "PicoService.setCallback()".
func serviceClassOf(method string) string {
	for i := 0; i < len(method); i++ {
		if method[i] == '.' {
			return method[:i]
		}
	}
	return method
}

// methodNameOf extracts "setCallback" from "PicoService.setCallback()".
func methodNameOf(method string) string {
	name := method
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			name = name[i+1:]
			break
		}
	}
	if n := len(name); n >= 2 && name[n-2] == '(' && name[n-1] == ')' {
		name = name[:n-2]
	}
	return name
}

// NewAppService builds and publishes one app service exposing the given
// catalogued rows (all rows must share the same Package and class).
func NewAppService(owner *App, d *binder.Driver, clock *simclock.Clock, reg *ServiceRegistry, rows []catalog.AppInterface, seed int64) (*AppService, error) {
	if len(rows) == 0 {
		return nil, errors.New("apps: service needs at least one interface row")
	}
	proc := owner.Start()
	mix := int64(len(rows))
	s := &AppService{
		owner:   owner,
		clock:   clock,
		rngSeed: seed ^ mix,
		seedMix: mix,
		methods: make(Methods),
		codes:   make(map[string]binder.TxCode),
	}
	var names []string
	byName := make(map[string]catalog.AppInterface)
	for _, r := range rows {
		n := methodNameOf(r.Method)
		byName[n] = r
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		code := binder.TxCode(i + 1)
		s.methods[code] = byName[n]
		s.codes[n] = code
	}
	s.transactor = binder.TransactorFunc(s.onTransact)
	s.stub = d.NewLocalBinder(proc, serviceClassOf(rows[0].Method), s.transactor)
	s.regName = AppServiceName(rows[0])
	if err := reg.Publish(s.regName, s.stub); err != nil {
		return nil, err
	}
	return s, nil
}

// CloneInto populates dst as a boot-state clone of s: immutable method
// tables are shared, retained entries start empty (the template froze at
// boot quiescence), and the stub is re-minted and re-published in boot
// order so driver ids replay identically. owner must be the clone
// device's corresponding App.
func (s *AppService) CloneInto(dst *AppService, owner *App, d *binder.Driver, clock *simclock.Clock, reg *ServiceRegistry, seed int64) error {
	tr := dst.transactor
	*dst = AppService{
		owner:   owner,
		clock:   clock,
		rngSeed: seed ^ s.seedMix,
		seedMix: s.seedMix,
		regName: s.regName,
		methods: s.methods,
		codes:   s.codes,
		calls:   s.calls,
	}
	if tr == nil {
		tr = binder.TransactorFunc(dst.onTransact)
	}
	dst.transactor = tr
	dst.stub = d.NewLocalBinder(owner.Start(), s.stub.Class(), tr)
	return reg.Publish(dst.regName, dst.stub)
}

// rand returns the jitter rng, seeding it on first use.
func (s *AppService) rand() *rand.Rand {
	if s.rng == nil {
		s.rng = xrand.New(s.rngSeed)
	}
	return s.rng
}

// Name returns the registry name the service is published under.
func (s *AppService) Name() string { return s.regName }

// Owner returns the exporting app.
func (s *AppService) Owner() *App { return s.owner }

// Stub returns the service's local binder.
func (s *AppService) Stub() *binder.LocalBinder { return s.stub }

// Code resolves a short method name ("setCallback").
func (s *AppService) Code(method string) (binder.TxCode, bool) {
	c, ok := s.codes[method]
	return c, ok
}

// Methods returns the service's method table.
func (s *AppService) Methods() Methods { return s.methods }

// EntryCount returns retained registrations for a short method name.
func (s *AppService) EntryCount(method string) int { return s.entries[method].Len() }

// DropRegistrations forgets every registration the service holds,
// releasing none, as services.Service.DropRegistrations does for an
// instance replaced after its host died.
func (s *AppService) DropRegistrations() { s.entries = nil }

func (s *AppService) onTransact(call *binder.Call) error {
	ai, ok := s.methods[call.Code]
	if !ok {
		return fmt.Errorf("apps: %s: unknown code %d", s.stub.Class(), call.Code)
	}
	s.calls++
	jitter := time.Duration(s.rand().Int63n(int64(ai.Cost.Jitter) + 1))
	s.clock.Advance(ai.Cost.ExecBase/2 + jitter)
	ref, err := call.Data.ReadStrongBinder()
	if err != nil {
		return err
	}
	if ref == nil {
		s.clock.Advance(ai.Cost.ExecBase / 2)
		return nil
	}
	// The default base-class implementation retains the callback for the
	// life of the calling app (paper §IV-D: "all the JGR entries can be
	// revoked only when the requesting third-party app exits"). A link
	// error is ignored: the entry then lives as long as the service.
	name := methodNameOf(ai.Method)
	l := s.entries[name]
	if l == nil {
		if s.entries == nil {
			s.entries = make(map[string]*binder.CallbackList[struct{}])
		}
		l = new(binder.CallbackList[struct{}])
		s.entries[name] = l
	}
	_, _ = l.Register(ref, struct{}{})
	s.clock.Advance(ai.Cost.ExecBase / 2)
	call.Reply.WriteInt32(0)
	return nil
}

// InstallWithUid registers a package under a fixed uid — used for prebuilt
// core apps, which own reserved uids (e.g. Bluetooth's AID_BLUETOOTH) and
// must not consume the sequential third-party uid space.
func (m *Manager) InstallWithUid(pkg string, uid kernel.Uid, wants ...permissions.Permission) (*App, error) {
	if pkg == "" {
		return nil, errors.New("apps: empty package name")
	}
	if _, ok := m.byPkg[pkg]; ok {
		return nil, fmt.Errorf("install %s: %w", pkg, ErrAlreadyInstalled)
	}
	if _, ok := m.byUid[uid]; ok {
		return nil, fmt.Errorf("install %s: uid %d already taken", pkg, uid)
	}
	a := &App{pkg: pkg, uid: uid, mgr: m}
	for _, p := range wants {
		if err := m.perms.Grant(a.uid, p); err != nil {
			return nil, fmt.Errorf("install %s: %w", pkg, err)
		}
	}
	m.byPkg[pkg] = a
	m.byUid[a.uid] = a
	return a, nil
}
