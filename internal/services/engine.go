// Package services implements executable Android system services on top of
// the binder/kernel/art substrates. A single catalog-driven engine
// instantiates all 104 services of the census: every interface row from
// Tables I–III behaves as the paper describes (retaining caller binders,
// enforcing — or failing to enforce — its shipped guard), and each service
// additionally exposes the "innocent" IPC patterns of §III-C3 so the
// static and dynamic analyses have real negatives to discriminate.
package services

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/simclock"
	"repro/internal/xrand"
)

// Errors returned to callers through failed transactions.
var (
	// ErrQuotaExceeded reports a per-process (or per-package) constraint
	// refusing the request — Table III behaviour.
	ErrQuotaExceeded = errors.New("services: per-process quota exceeded")
	// ErrNoSuchMethod reports an unknown transaction code.
	ErrNoSuchMethod = errors.New("services: no such method")
	// ErrNoEntry reports an unregister with nothing registered.
	ErrNoEntry = errors.New("services: no registered entry for caller")
)

// Behaviour classifies how an IPC method treats a caller-supplied binder,
// mirroring the paper's vulnerability condition and the four sift rules of
// §III-C3.
type Behaviour int

const (
	// BehaviourRetain stores the binder indefinitely — the vulnerable
	// pattern. The entry is freed on explicit unregister or caller death.
	BehaviourRetain Behaviour = iota + 1
	// BehaviourThreadOnly only spawns a worker (Thread.nativeCreate);
	// its JGR is released immediately (sift rule 1).
	BehaviourThreadOnly
	// BehaviourLocalUse uses the binder inside the call only; GC
	// reclaims it afterwards (sift rule 2).
	BehaviourLocalUse
	// BehaviourReadOnly consults the binder as a read-only key of a
	// container; GC reclaims it afterwards (sift rule 3).
	BehaviourReadOnly
	// BehaviourMemberOverwrite stores the binder in a single member
	// field, revoking the previous one on each call (sift rule 4).
	BehaviourMemberOverwrite
	// BehaviourPlain takes no binder at all.
	BehaviourPlain
)

// String names the behaviour.
func (b Behaviour) String() string {
	switch b {
	case BehaviourRetain:
		return "retain"
	case BehaviourThreadOnly:
		return "thread-only"
	case BehaviourLocalUse:
		return "local-use"
	case BehaviourReadOnly:
		return "read-only"
	case BehaviourMemberOverwrite:
		return "member-overwrite"
	case BehaviourPlain:
		return "plain"
	default:
		return fmt.Sprintf("Behaviour(%d)", int(b))
	}
}

// InnocentSpec describes one generated non-vulnerable method. Every
// service exposes this fixed set (in addition to its catalogued rows), so
// the analysis pipeline sees thousands of IPC methods of which only the
// catalogued ones are real findings.
type InnocentSpec struct {
	Name      string
	Behaviour Behaviour
}

// InnocentMethods is the per-service set of generated innocent methods.
// The corpus generator (internal/corpus) emits matching code-model
// entries; the names must stay in sync.
var InnocentMethods = []InnocentSpec{
	{Name: "getState", Behaviour: BehaviourPlain},
	{Name: "startTask", Behaviour: BehaviourThreadOnly},
	{Name: "checkAccess", Behaviour: BehaviourLocalUse},
	{Name: "noteEvent", Behaviour: BehaviourReadOnly},
	{Name: "setSingleCallback", Behaviour: BehaviourMemberOverwrite},
}

// UnregisterPrefix prefixes the paired release method generated for every
// retaining interface.
const UnregisterPrefix = "unregister:"

// method is one dispatchable IPC method of a service.
type method struct {
	name          string
	behaviour     Behaviour
	spec          *catalog.Interface // the catalog row; nil unless catalogued
	unregisterFor string             // set on generated unregister methods
}

// caller identifies who registered a callback: the kernel-reported pid
// the per-process guards count, and the caller-supplied package string
// the toast quota counts.
type caller struct {
	pid kernel.Pid
	pkg string
}

// entry is a caller's binder held in a BehaviourMemberOverwrite slot.
type entry struct {
	ref  *binder.BinderRef
	link *binder.DeathLink
}

// Service is one instantiated system service.
type Service struct {
	meta   catalog.Service
	host   *kernel.Process
	driver *binder.Driver
	clock  *simclock.Clock
	perms  *permissions.Manager

	// rng is seeded lazily on the first jitter draw: with 104 services per
	// device, eager seeding dominates both boot and clone cost, and most
	// services in a run are never called. rngSeed is the full mixed seed;
	// seedMix is the per-service component, kept so a clone onto a
	// different device seed can recompute rngSeed without rehashing.
	rng     *rand.Rand
	rngSeed int64
	seedMix int64

	stub *binder.LocalBinder
	// transactor caches the dispatch closure handed to the driver. It
	// binds only the Service pointer, which is stable for a slab entry,
	// so a recycled clone (CloneInto onto the same dst) reuses it instead
	// of allocating one closure per service per trial.
	transactor binder.Transactor
	tab        *Dispatch

	// entries holds retained registrations per catalogued method name,
	// each list in registration order.
	entries map[string]*binder.CallbackList[caller]
	// member holds the single member-field slot per caller for
	// BehaviourMemberOverwrite methods (keyed method|pid).
	member map[string]*entry

	calls  uint64
	objSeq uint64
	quota  int
}

// Config assembles a Service.
type Config struct {
	Meta   catalog.Service
	Host   *kernel.Process
	Driver *binder.Driver
	Clock  *simclock.Clock
	Perms  *permissions.Manager
	// Seed makes per-call jitter deterministic per device run.
	Seed int64
	// UniversalQuota, when positive, enforces a per-caller-pid cap on
	// every catalogued (retaining) interface — the hypothetical
	// "fix everything with per-process constraints" patch whose
	// usability trade-off the paper's §IV-B discusses. 0 disables it.
	UniversalQuota int
	// ExtraBootRefs pins this many JGR entries at construction,
	// modelling the service's long-lived internal callbacks; the sum
	// across services yields system_server's 1,000–3,000 baseline
	// (Fig. 4).
	ExtraBootRefs int
}

// New instantiates a service and registers its binder with sm. Its
// methods are the catalog's interfaces for cfg.Meta.Name plus the
// innocent set, dispatched through the service's shared table.
func New(cfg Config, sm *binder.ServiceManager) (*Service, error) {
	if cfg.Host == nil || cfg.Driver == nil || cfg.Clock == nil || cfg.Perms == nil {
		return nil, errors.New("services: incomplete config")
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Meta.Name))
	mix := int64(h.Sum64())
	s := &Service{
		meta:    cfg.Meta,
		host:    cfg.Host,
		driver:  cfg.Driver,
		clock:   cfg.Clock,
		perms:   cfg.Perms,
		rngSeed: cfg.Seed ^ mix,
		seedMix: mix,
		tab:     dispatchFor(cfg.Meta.Name),
		quota:   cfg.UniversalQuota,
	}
	s.transactor = binder.TransactorFunc(s.onTransact)
	s.stub = cfg.Driver.NewLocalBinder(cfg.Host, cfg.Meta.Class, s.transactor)
	if err := sm.AddService(cfg.Meta.Name, s.stub); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.ExtraBootRefs; i++ {
		if _, err := cfg.Host.VM().AddGlobalRef(s.newObject()); err != nil {
			return nil, fmt.Errorf("services: boot refs for %s: %w", cfg.Meta.Name, err)
		}
	}
	return s, nil
}

// rand returns the jitter rng, seeding it on first use. The draw
// sequence is identical to an eagerly seeded rng, so lazy seeding is
// invisible to byte-identity.
func (s *Service) rand() *rand.Rand {
	if s.rng == nil {
		s.rng = xrand.New(s.rngSeed)
	}
	return s.rng
}

// CloneInto populates dst as a boot-state clone of s for a snapshot
// clone of its device: the dispatch table is shared, the
// retained-entry maps start empty (the template is frozen at boot
// quiescence, before any transaction), and the jitter rng is re-keyed
// lazily from the clone's device seed. The caller supplies the clone's
// substrate (host process, driver, clock, perms) and mints the stub's
// driver node in boot order; no ServiceManager registration runs — the
// clone's registry resolves names through the shared frozen table.
func (s *Service) CloneInto(dst *Service, host *kernel.Process, driver *binder.Driver, clock *simclock.Clock, perms *permissions.Manager, seed int64) {
	tr := dst.transactor
	*dst = Service{
		meta:    s.meta,
		host:    host,
		driver:  driver,
		clock:   clock,
		perms:   perms,
		rngSeed: seed ^ s.seedMix,
		seedMix: s.seedMix,
		tab:     s.tab,
		calls:   s.calls,
		objSeq:  s.objSeq,
		quota:   s.quota,
	}
	if tr == nil {
		tr = binder.TransactorFunc(dst.onTransact)
	}
	dst.transactor = tr
	dst.stub = driver.NewLocalBinder(host, s.meta.Class, tr)
}

// Name returns the ServiceManager name.
func (s *Service) Name() string { return s.meta.Name }

// Host returns the hosting process.
func (s *Service) Host() *kernel.Process { return s.host }

// Stub returns the service's local binder (used to resolve its driver
// handle for the defender's record attribution).
func (s *Service) Stub() *binder.LocalBinder { return s.stub }

// Code returns the transaction code for a method name.
func (s *Service) Code(methodName string) (binder.TxCode, bool) {
	c, ok := s.tab.codes[methodName]
	return c, ok
}

// Dispatch returns the service's dispatch table, which every instance
// of the service shares.
func (s *Service) Dispatch() *Dispatch { return s.tab }

// MethodNames returns all dispatchable method names, sorted: codes run
// in name order.
func (s *Service) MethodNames() []string {
	out := make([]string, len(s.tab.methods))
	for i := range s.tab.methods {
		out[i] = s.tab.methods[i].name
	}
	return out
}

// EntryCount returns the retained registrations for a method.
func (s *Service) EntryCount(methodName string) int { return s.entries[methodName].Len() }

// TotalEntries returns all retained registrations of the service.
func (s *Service) TotalEntries() int {
	n := 0
	for _, l := range s.entries {
		n += l.Len()
	}
	return n
}

// Calls returns how many transactions the service has handled.
func (s *Service) Calls() uint64 { return s.calls }

// DropRegistrations forgets every registration the service holds,
// releasing none. The device calls it on an instance it replaces after
// the instance's host died: the host's runtime and binder context died
// with it, so there is nothing left to release, and an instance that the
// device's storage still points to keeps no registration reachable.
func (s *Service) DropRegistrations() {
	s.entries = nil
	s.member = nil
}

// onTransact is the service stub dispatch.
func (s *Service) onTransact(call *binder.Call) error {
	m := s.tab.method(call.Code)
	if m == nil {
		return fmt.Errorf("%w: %s code %d", ErrNoSuchMethod, s.meta.Name, call.Code)
	}
	s.calls++
	if m.spec != nil {
		if err := s.perms.Enforce(call.SenderUid, m.spec.Permission); err != nil {
			return err
		}
		return s.handleCatalogued(m, call)
	}
	if m.unregisterFor != "" {
		return s.handleUnregister(m.unregisterFor, call)
	}
	return s.handleInnocent(m, call)
}

// chargeExec advances the clock for the pre-JGR part of the handler and
// returns the post-JGR remainder. The elapsed time before the JGR add is
// the paper's Delay + Δ (Observation 2): a stable floor plus a small
// bounded deviation.
func (s *Service) chargeExec(c catalog.CostModel, stored int) (post time.Duration) {
	jitter := time.Duration(s.rand().Int63n(int64(c.Jitter) + 1))
	pre := c.ExecBase/2 + jitter
	post = c.ExecBase/2 + time.Duration(stored)*c.ExecSlope
	s.clock.Advance(pre)
	return post
}

// PathShift is the extra pre-JGR execution time each code-path variant of
// a multi-path interface adds (paper §VI: "attackers may exploit the
// vulnerabilities via multiple attack paths", shifting the IPC→JGR delay
// per path).
const PathShift = 3 * time.Millisecond

// handleCatalogued implements a Table I–III row: enforce the guard it
// ships with (if any), then retain the caller's binder.
func (s *Service) handleCatalogued(m *method, call *binder.Call) error {
	pkg, err := call.Data.ReadString()
	if err != nil {
		return fmt.Errorf("%s.%s: reading caller package: %w", s.meta.Name, m.name, err)
	}
	// Optional leading int32: the execution-path selector. Different
	// paths run different branches of the handler before the binder is
	// materialized, so the IPC→JGR delay shifts per path.
	var variant int32
	if call.Data.NextIsInt32() {
		if variant, err = call.Data.ReadInt32(); err != nil {
			return err
		}
		if variant < 0 || variant > 8 {
			return fmt.Errorf("%s.%s: invalid path variant %d", s.meta.Name, m.name, variant)
		}
		// Path-dependent argument payload (failed reads do not consume,
		// so plain calls are unaffected).
		if _, err := call.Data.ReadBytes(); err != nil && !errors.Is(err, binder.ErrParcelExhausted) {
			var tm *binder.TypeMismatchError
			if !errors.As(err, &tm) {
				return err
			}
		}
	}
	post := s.chargeExec(m.spec.Cost, s.entries[m.name].Len())
	if variant > 0 {
		s.clock.Advance(time.Duration(variant) * PathShift)
	}

	// The hypothetical universal patch: a pid-keyed quota on every
	// retaining interface, checked before (and regardless of) whatever
	// guard the interface shipped with.
	if s.quota > 0 && s.countByPid(m.name, call.SenderPid) >= s.quota {
		s.clock.Advance(post)
		return fmt.Errorf("%w: pid %d at universal quota %d for %s",
			ErrQuotaExceeded, call.SenderPid, s.quota, m.name)
	}

	switch m.spec.Protection {
	case catalog.PerProcessGuard:
		if s.meta.Name == "notification" && m.name == "enqueueToast" {
			// Code-Snippet 3: the quota exempts "system toasts", but
			// system-ness is judged from the caller-supplied package
			// string — spoofing "android" bypasses the limit.
			isSystemToast := pkg == "android"
			if !isSystemToast && s.countByPackage(m.name, pkg) >= m.spec.GuardLimit {
				s.clock.Advance(post)
				return fmt.Errorf("%w: package %q has already posted %d toasts",
					ErrQuotaExceeded, pkg, m.spec.GuardLimit)
			}
		} else {
			// The correctly implemented guards key the quota on the
			// kernel-reported caller identity, which cannot be spoofed.
			if s.countByPid(m.name, call.SenderPid) >= m.spec.GuardLimit {
				s.clock.Advance(post)
				return fmt.Errorf("%w: pid %d at limit %d for %s",
					ErrQuotaExceeded, call.SenderPid, m.spec.GuardLimit, m.name)
			}
		}
	case catalog.HelperGuard, catalog.Unprotected:
		// No service-side check: Table II's guards live in the helper
		// class inside the caller's process, Table I has none at all.
	}

	ref, err := call.Data.ReadStrongBinder()
	if err != nil {
		return fmt.Errorf("%s.%s: reading callback binder: %w", s.meta.Name, m.name, err)
	}
	if ref == nil {
		s.clock.Advance(post)
		return nil
	}
	if err := s.retain(m.name, ref, call, pkg); err != nil {
		return err
	}
	s.clock.Advance(post)
	call.Reply.WriteInt32(0)
	return nil
}

// retain stores a registration: pin the proxy's JGR and link the caller's
// death so the entry is reclaimed when the client exits — which is why
// clipboard listeners "will not be released until the corresponding app
// process exits" (paper §II-A).
func (s *Service) retain(methodName string, ref *binder.BinderRef, call *binder.Call, pkg string) error {
	l := s.entries[methodName]
	if l == nil {
		if s.entries == nil {
			s.entries = make(map[string]*binder.CallbackList[caller])
		}
		l = new(binder.CallbackList[caller])
		s.entries[methodName] = l
	}
	cb, err := l.Register(ref, caller{pid: call.SenderPid, pkg: pkg})
	if err != nil && !errors.Is(err, binder.ErrLocalBinder) {
		cb.Remove()
		return fmt.Errorf("%s.%s: linkToDeath: %w", s.meta.Name, methodName, err)
	}
	return nil
}

func (s *Service) countByPid(methodName string, pid kernel.Pid) int {
	n := 0
	for cb := s.entries[methodName].Front(); cb != nil; cb = cb.Next() {
		if cb.Cookie.pid == pid {
			n++
		}
	}
	return n
}

func (s *Service) countByPackage(methodName, pkg string) int {
	n := 0
	for cb := s.entries[methodName].Front(); cb != nil; cb = cb.Next() {
		if cb.Cookie.pkg == pkg {
			n++
		}
	}
	return n
}

// handleUnregister releases the caller's oldest registration.
func (s *Service) handleUnregister(methodName string, call *binder.Call) error {
	for cb := s.entries[methodName].Front(); cb != nil; cb = cb.Next() {
		if cb.Cookie.pid == call.SenderPid {
			cb.Remove()
			call.Reply.WriteInt32(0)
			return nil
		}
	}
	return fmt.Errorf("%w: %s.%s pid %d", ErrNoEntry, s.meta.Name, methodName, call.SenderPid)
}

// innocentCost is the uniform cost model of generated innocent methods.
var innocentCost = catalog.CostModel{
	ExecBase: 300 * time.Microsecond,
	Jitter:   200 * time.Microsecond,
}

// handleInnocent implements the non-vulnerable patterns.
func (s *Service) handleInnocent(m *method, call *binder.Call) error {
	post := s.chargeExec(innocentCost, 0)
	defer s.clock.Advance(post)
	// Every client call leads with the caller package string.
	if _, err := call.Data.ReadString(); err != nil && !errors.Is(err, binder.ErrParcelExhausted) {
		return err
	}
	switch m.behaviour {
	case BehaviourPlain:
		call.Reply.WriteInt32(int32(s.entries[m.name].Len()))
		return nil
	case BehaviourThreadOnly:
		// Thread.nativeCreate takes a JGR and Thread::CreateNativeThread
		// releases it before returning (sift rule 1).
		ref, err := s.host.VM().AddGlobalRef(s.newObject())
		if err != nil {
			return err
		}
		return s.host.VM().DeleteGlobalRef(ref)
	case BehaviourLocalUse, BehaviourReadOnly:
		// The binder is read (JGR added) but never retained: the
		// framework marks it collectable at end of call and GC frees it.
		if _, err := call.Data.ReadStrongBinder(); err != nil && !errors.Is(err, binder.ErrParcelExhausted) {
			return err
		}
		call.Reply.WriteInt32(0)
		return nil
	case BehaviourMemberOverwrite:
		ref, err := call.Data.ReadStrongBinder()
		if err != nil {
			return err
		}
		if ref == nil {
			return nil
		}
		ref.Retain()
		key := m.name + "|" + fmt.Sprint(call.SenderPid)
		if prev, ok := s.member[key]; ok {
			if prev.link != nil {
				prev.link.Unlink()
			}
			prev.ref.Release()
		}
		e := &entry{ref: ref}
		if link, err := ref.Binder().LinkToDeath(func() { s.dropMember(key, e) }); err == nil {
			e.link = link
		}
		if s.member == nil {
			s.member = make(map[string]*entry)
		}
		s.member[key] = e
		return nil
	default:
		return fmt.Errorf("services: unhandled behaviour %v", m.behaviour)
	}
}

func (s *Service) dropMember(key string, e *entry) {
	if cur, ok := s.member[key]; ok && cur == e {
		delete(s.member, key)
		e.ref.Release()
	}
}

// newObject mints a heap object for boot-time pins and worker threads.
func (s *Service) newObject() *art.Object {
	s.objSeq++
	return &art.Object{ID: art.ObjectID(s.objSeq)}
}

// NotifyListeners delivers a callback transaction to every listener
// registered on a retaining method — the reverse direction the listeners
// exist for (a clipboard change notifying addPrimaryClipChangedListener
// registrants). Dead or token-only callbacks are skipped; the count of
// successful deliveries is returned.
func (s *Service) NotifyListeners(methodName string, payload string) int {
	delivered := 0
	// Snapshot, as RemoteCallbackList.beginBroadcast does: a callback can
	// trigger death handling or registrations that edit the list.
	l := s.entries[methodName]
	refs := make([]*binder.BinderRef, 0, l.Len())
	for cb := l.Front(); cb != nil; cb = cb.Next() {
		refs = append(refs, cb.Ref())
	}
	data, reply := binder.ObtainParcel(), binder.ObtainParcel()
	defer data.Recycle()
	defer reply.Recycle()
	for _, ref := range refs {
		data.Reset()
		reply.Reset()
		data.WriteString(payload)
		if err := ref.Binder().Transact(1, data, reply); err != nil {
			continue // token binders and dead clients are expected
		}
		delivered++
	}
	return delivered
}
