// Package workload drives the simulated device with the traffic patterns
// the paper's experiments use: single JGRE attackers paced per interface
// (Fig. 3), the MonkeyRunner-style benign population of Google Play top
// apps (Fig. 4, Observation 1), IPC-heavy-but-benign bystanders and
// colluding attacker groups (Figs. 8 and 9).
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/permissions"
	"repro/internal/services"
)

// Actor is a virtual-time participant: it wants to act at Due and acts via
// Step.
type Actor interface {
	// Due is the virtual time of the actor's next action.
	Due() time.Duration
	// Step performs one action (typically one IPC call); the action
	// itself advances the clock through driver/service costs.
	Step() error
	// Done reports that the actor has nothing further to do.
	Done() bool
}

// Scheduler is the discrete-event core: actors are events on a
// deterministic priority queue over virtual time, and every Step
// schedules the actor's own next firing from its per-class arrival
// process. Same-instant events fire in actor registration order (the
// queue's tie-break priority is the registration index), which is
// exactly the order the old linear min-Due scan produced, so envelopes
// are byte-identical across the rewrite.
//
// Besides actors the scheduler carries one-shot timers (At): the chaos
// engine and the supervisor schedule crashes and backoff restarts as
// plain events on the same queue, so fault timing is as deterministic as
// the workload itself. Timer priorities live above timerPriBase, which
// makes every same-instant timer fire after every same-instant actor —
// a run with zero timers is byte-identical to a run before timers
// existed.
type Scheduler struct {
	dev      *device.Device
	actors   []Actor
	queue    event.Queue[schedItem]
	timers   []*timerEvent
	timerSeq uint64
	running  bool
}

// schedItem is one queue entry: an actor (by registration index) or a
// one-shot timer.
type schedItem struct {
	actor int
	timer *timerEvent
}

// timerEvent is a one-shot callback at a fixed virtual time. The
// priority is assigned at creation and stays stable across Run-boundary
// queue rebuilds, so two timers created in order always fire in order.
type timerEvent struct {
	at    time.Duration
	pri   uint64
	fn    func()
	fired bool
}

// timerPriBase orders all timers after all same-instant actors: actor
// priorities are registration indexes, far below 1<<32.
const timerPriBase = uint64(1) << 32

// NewScheduler creates a scheduler on the device clock. The scheduler
// publishes queue-depth and virtual-time gauges into the device
// registry.
func NewScheduler(dev *device.Device) *Scheduler {
	s := &Scheduler{dev: dev}
	if reg := dev.Metrics(); reg != nil {
		reg.GaugeFunc("jgre_event_queue_depth",
			"Events pending in the workload scheduler's virtual-time queue.",
			func() float64 { return float64(s.queue.Len()) })
		reg.GaugeFunc("jgre_event_virtual_time_seconds",
			"Current virtual time of the device clock, in seconds since boot.",
			func() float64 { return dev.Clock().Now().Seconds() })
	}
	return s
}

// Add registers an actor. Same-due ties fire in registration order.
func (s *Scheduler) Add(a Actor) { s.actors = append(s.actors, a) }

// At schedules fn to run once at virtual time t (clamped to now if t is
// in the past). Timers created while Run is draining the queue are
// pushed live; timers created between runs are picked up by the next
// Run's rebuild. A timer firing counts as a step.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if now := s.dev.Clock().Now(); t < now {
		t = now
	}
	s.timerSeq++
	ev := &timerEvent{at: t, pri: timerPriBase + s.timerSeq, fn: fn}
	s.timers = append(s.timers, ev)
	if s.running {
		s.queue.Push(ev.at, ev.pri, schedItem{timer: ev})
	}
}

// Run drains the event queue in (due, registration order) until stop
// returns true, every actor is done, or maxSteps actions have run; it
// returns the number of steps. maxSteps <= 0 means no step limit — the
// run is bounded only by stop and actor completion. Actor errors stop
// that actor for the remainder of the run (an attacker losing its victim
// is expected) but still count as a step, exactly as the pre-event-core
// scan loop counted them.
func (s *Scheduler) Run(stop func() bool, maxSteps int) int {
	clock := s.dev.Clock()
	// Rebuild the queue from current actor state: Due/Done may have been
	// driven externally between Run calls, and errored-but-not-Done actors
	// become eligible again on the next Run (the old loop's dead map was
	// Run-local too). Unfired timers carry over between runs; fired ones
	// are compacted away.
	s.queue = event.Queue[schedItem]{}
	for i, a := range s.actors {
		if a.Done() {
			continue
		}
		s.queue.Push(a.Due(), uint64(i), schedItem{actor: i})
	}
	live := s.timers[:0]
	for _, ev := range s.timers {
		if ev.fired {
			continue
		}
		live = append(live, ev)
		s.queue.Push(ev.at, ev.pri, schedItem{timer: ev})
	}
	s.timers = live
	s.running = true
	defer func() { s.running = false }()
	steps := 0
	for maxSteps <= 0 || steps < maxSteps {
		if stop != nil && stop() {
			break
		}
		it, at, ok := s.queue.Pop()
		if !ok {
			break
		}
		if ev := it.timer; ev != nil {
			if ev.fired {
				continue
			}
			clock.AdvanceTo(at)
			ev.fired = true
			ev.fn()
			steps++
			continue
		}
		a := s.actors[it.actor]
		// Done is re-checked at pop time with the clock still at the
		// previous event: actors whose Done depends on virtual time (a
		// StopAfter bound) must see the same clock the old scan showed
		// them, and a done event must not advance time or count a step.
		if a.Done() {
			continue
		}
		clock.AdvanceTo(at)
		err := a.Step()
		steps++
		if err == nil {
			s.queue.Push(a.Due(), uint64(it.actor), schedItem{actor: it.actor})
		}
	}
	return steps
}

// restartRetryInterval paces an auto-restarting actor that came back up
// before its target service did: the relaunch is retried on this fixed
// deterministic cadence until the supervisor has re-registered the
// service.
const restartRetryInterval = 50 * time.Millisecond

// chaosRestartable reports whether an exit reason is a lifecycle-chaos
// death an auto-restarting actor should recover from. Anything else
// (LMK, a defender kill, an explicit stop) keeps its pre-chaos
// semantics: the actor stays down.
func chaosRestartable(reason string) bool {
	return strings.HasPrefix(reason, "chaos:") || strings.HasPrefix(reason, "soft reboot")
}

// arrival is a per-class arrival process: given the current virtual
// time it yields the time of the actor's next firing. Each actor class
// owns one and schedules itself with it at the end of every Step, which
// is what turns the old step-loops into self-scheduling event handlers.
type arrival interface {
	next(now time.Duration) time.Duration
}

// fixedArrival fires at a constant think-time period — the attacker
// classes, paced from the catalogued AttackSeconds.
type fixedArrival struct {
	think time.Duration
}

func (f fixedArrival) next(now time.Duration) time.Duration { return now + f.think }

// uniformArrival fires after a uniform delay in [0, span) nanoseconds —
// the benign classes. The draw is a single rng.Int63n(span), sharing the
// actor's rng, so the rewrite consumes exactly the random sequence the
// old inline pacing expressions did (a BenignApp's span of interval+1
// keeps its closed upper bound).
type uniformArrival struct {
	rng  *rand.Rand
	span int64
}

func (u uniformArrival) next(now time.Duration) time.Duration {
	return now + time.Duration(u.rng.Int63n(u.span))
}

// Attacker floods one vulnerable interface from one app, paced so that a
// solo run exhausts the victim in roughly the catalogued AttackSeconds
// (Fig. 3's per-interface durations).
type Attacker struct {
	dev    *device.Device
	app    *apps.App
	target catalog.Interface
	// pkg is the package name sent with each call ("android" for the
	// enqueueToast spoof).
	pkg    string
	client *services.Client
	pace   arrival
	due    time.Duration
	calls  int
	failed error
	// paths > 1 makes the attacker rotate execution-path variants per
	// call — the §VI evasion attempt against delay-correlation scoring.
	paths int
	// autoRestart makes the attacker relaunch after lifecycle-chaos
	// deaths (a real JGRE author restarts too; see chaosRestartable).
	autoRestart bool
	restarts    int
}

// typicalBaseline approximates system_server's resting JGR table, used
// only to derive attack pacing.
const typicalBaseline = 1500

// refsPerCall is the victim-side JGR growth per retained registration
// (proxy + death recipient).
const refsPerCall = 2

// ThinkTimeFor derives the per-call idle time that makes a solo attack
// last about the catalogued AttackSeconds.
func ThinkTimeFor(iface catalog.Interface) time.Duration {
	calls := (catalog.JGRThreshold - typicalBaseline) / refsPerCall
	period := time.Duration(iface.Cost.AttackSeconds) * time.Second / time.Duration(calls)
	busy := binder.DefaultLatency.Base + iface.Cost.ExecBase + iface.Cost.Jitter/2
	if period <= busy {
		return 0
	}
	return period - busy
}

// NewAttacker installs (or reuses) the app and opens the raw binder
// client, granting whatever obtainable permission the interface demands —
// Code-Snippet 2 in executable form.
func NewAttacker(dev *device.Device, app *apps.App, ifaceFull string) (*Attacker, error) {
	iface, ok := catalog.InterfaceByName(ifaceFull)
	if !ok {
		return nil, fmt.Errorf("workload: unknown interface %s", ifaceFull)
	}
	if iface.Permission != "" {
		if !dev.Permissions().ObtainableByApp(iface.Permission) {
			return nil, fmt.Errorf("workload: %s needs unobtainable permission %s", ifaceFull, iface.Permission)
		}
		if err := dev.Permissions().Grant(app.Uid(), iface.Permission); err != nil {
			return nil, err
		}
	}
	client, err := dev.NewClient(app, iface.Service)
	if err != nil {
		return nil, err
	}
	pkg := app.Package()
	if iface.FullName() == "notification.enqueueToast" {
		pkg = "android" // the Code-Snippet 3 spoof
	}
	return &Attacker{
		dev: dev, app: app, target: iface, pkg: pkg, client: client,
		pace: fixedArrival{think: ThinkTimeFor(iface)}, due: dev.Clock().Now(),
	}, nil
}

// Target returns the attacked interface.
func (a *Attacker) Target() catalog.Interface { return a.target }

// SetPathCount makes the attacker rotate through n execution-path
// variants (n ≤ 1 restores single-path behaviour).
func (a *Attacker) SetPathCount(n int) { a.paths = n }

// App returns the attacking app.
func (a *Attacker) App() *apps.App { return a.app }

// Calls returns how many IPC calls the attacker has issued.
func (a *Attacker) Calls() int { return a.calls }

// Err returns the error that stopped the attacker, if any.
func (a *Attacker) Err() error { return a.failed }

// SetAutoRestart toggles relaunch-after-chaos: with it on, a process
// death whose reason is a chaos kill or a soft reboot relaunches the app
// and rebinds the client instead of permanently stopping the actor.
func (a *Attacker) SetAutoRestart(on bool) { a.autoRestart = on }

// Restarts returns how many times the attacker relaunched after a
// chaos death.
func (a *Attacker) Restarts() int { return a.restarts }

// relaunch restarts the app and rebinds the attack client. If the
// target service is itself down (awaiting its supervisor restart) the
// relaunch is retried on a fixed cadence rather than failing the actor.
func (a *Attacker) relaunch() error {
	a.app.Start()
	client, err := a.dev.NewClient(a.app, a.target.Service)
	if err != nil {
		a.due = a.dev.Clock().Now() + restartRetryInterval
		return nil
	}
	a.client = client
	a.restarts++
	a.due = a.pace.next(a.dev.Clock().Now())
	return nil
}

// Due implements Actor.
func (a *Attacker) Due() time.Duration { return a.due }

// Done implements Actor: an attacker only stops when its calls fail
// (victim gone, or it was killed).
func (a *Attacker) Done() bool { return a.failed != nil }

// Step issues one registration and schedules the next.
func (a *Attacker) Step() error {
	if !a.app.Running() {
		if a.autoRestart && chaosRestartable(a.app.LastExitReason()) {
			return a.relaunch()
		}
		a.failed = errors.New("workload: attacker process dead")
		return a.failed
	}
	var err error
	if a.paths > 1 {
		variant := int32(a.calls % a.paths)
		err = a.client.RegisterPath(a.target.Method, a.pkg, variant, a.client.NewToken())
	} else {
		err = a.client.RegisterAs(a.target.Method, a.pkg, a.client.NewToken())
	}
	switch {
	case err == nil, errors.Is(err, services.ErrQuotaExceeded):
		// Quota refusals keep the attacker hammering (it costs nothing).
	case errors.Is(err, binder.ErrDeadObject), errors.Is(err, services.ErrRetryExhausted):
		// The victim service died under the call. A restart-aware
		// attacker rebinds once the supervisor brings it back — exactly
		// the blind-window behaviour the chaos sweeps measure.
		if a.autoRestart {
			return a.relaunch()
		}
		a.failed = err
		return err
	default:
		if !a.app.Running() {
			a.failed = err
			return err
		}
		a.failed = err
		return err
	}
	a.calls++
	a.due = a.pace.next(a.dev.Clock().Now())
	return nil
}

// AppAttacker floods a published app service (Tables IV and V).
type AppAttacker struct {
	dev     *device.Device
	app     *apps.App
	regName string
	method  string
	ref     *binder.BinderRef
	code    binder.TxCode
	pace    arrival
	due     time.Duration
	calls   int
	failed  error
}

// NewAppAttacker binds the app service named by the catalog row.
func NewAppAttacker(dev *device.Device, app *apps.App, row catalog.AppInterface) (*AppAttacker, error) {
	regName := apps.AppServiceName(row)
	svc := dev.AppService(regName)
	if svc == nil {
		return nil, fmt.Errorf("workload: app service %s not published", regName)
	}
	proc := app.Start()
	ref, err := dev.AppServices().Bind(regName, proc)
	if err != nil {
		return nil, err
	}
	short := shortMethod(row.Method)
	code, ok := svc.Code(short)
	if !ok {
		return nil, fmt.Errorf("workload: %s has no method %s", regName, short)
	}
	calls := (catalog.JGRThreshold - 100) / refsPerCall
	period := time.Duration(row.Cost.AttackSeconds) * time.Second / time.Duration(calls)
	busy := binder.DefaultLatency.Base + row.Cost.ExecBase + row.Cost.Jitter/2
	think := time.Duration(0)
	if period > busy {
		think = period - busy
	}
	return &AppAttacker{
		dev: dev, app: app, regName: regName, method: short,
		ref: ref, code: code, pace: fixedArrival{think: think}, due: dev.Clock().Now(),
	}, nil
}

func shortMethod(m string) string {
	name := m
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			name = name[i+1:]
			break
		}
	}
	if n := len(name); n >= 2 && name[n-2] == '(' {
		name = name[:n-2]
	}
	return name
}

// Due implements Actor.
func (a *AppAttacker) Due() time.Duration { return a.due }

// Done implements Actor.
func (a *AppAttacker) Done() bool { return a.failed != nil }

// Calls returns the number of issued calls.
func (a *AppAttacker) Calls() int { return a.calls }

// Step implements Actor.
func (a *AppAttacker) Step() error {
	if !a.app.Running() {
		a.failed = errors.New("workload: attacker process dead")
		return a.failed
	}
	data := binder.ObtainParcel()
	data.WriteStrongBinder(a.dev.Driver().NewLocalBinder(a.app.Proc(), "android.os.Binder", nil))
	err := a.ref.Binder().Transact(a.code, data, nil)
	data.Recycle()
	if err != nil {
		a.failed = err
		return err
	}
	a.calls++
	a.due = a.pace.next(a.dev.Clock().Now())
	return nil
}

// BenignApp models a Google Play top app: it opens clients on a few
// services, occasionally registers a listener through the proper helper
// path (bounded!), and otherwise issues innocent calls. Its per-service
// JGR footprint is small and stable — Observation 1.
type BenignApp struct {
	dev      *device.Device
	app      *apps.App
	rng      *rand.Rand
	services []string
	clients  map[string]*services.Client
	pace     arrival
	due      time.Duration
	calls    int
	regs     int
	maxRegs  int
	refusals int
	stopAt   time.Duration // 0 = forever
	failed   error

	autoRestart bool
	restarts    int
}

// benignServicePool is the set of services benign apps talk to.
var benignServicePool = []string{
	"clipboard", "audio", "window", "content", "power", "activity",
	"notification", "input_method", "connectivity", "wallpaper",
}

// NewBenignApp builds a benign actor with a deterministic per-app seed.
func NewBenignApp(dev *device.Device, app *apps.App, seed int64, interval time.Duration) (*BenignApp, error) {
	rng := dev.Rand(seed)
	n := 2 + rng.Intn(3)
	picked := make(map[string]bool)
	var svcNames []string
	for len(svcNames) < n {
		s := benignServicePool[rng.Intn(len(benignServicePool))]
		if !picked[s] {
			picked[s] = true
			svcNames = append(svcNames, s)
		}
	}
	// Draw order is load-bearing for byte-identity: the initial due draw
	// precedes the maxRegs draw, exactly as before the arrival-process
	// extraction.
	pace := uniformArrival{rng: rng, span: int64(interval) + 1}
	due := pace.next(dev.Clock().Now())
	b := &BenignApp{
		dev: dev, app: app, rng: rng, services: svcNames,
		clients: make(map[string]*services.Client),
		pace:    pace,
		due:     due,
		maxRegs: 1 + rng.Intn(3),
	}
	for _, svc := range svcNames {
		c, err := dev.NewClient(app, svc)
		if err != nil {
			return nil, err
		}
		b.clients[svc] = c
	}
	return b, nil
}

// App returns the underlying app.
func (b *BenignApp) App() *apps.App { return b.app }

// Calls returns how many IPC calls the app has issued.
func (b *BenignApp) Calls() int { return b.calls }

// Refusals returns how many of the app's legitimate registrations a
// service quota rejected — the usability cost of per-process constraints
// (paper §IV-B).
func (b *BenignApp) Refusals() int { return b.refusals }

// Registrations returns how many listeners the app holds.
func (b *BenignApp) Registrations() int { return b.regs }

// SetHeavy turns the app into a listener-heavy citizen (launchers, input
// methods and accessibility tools legitimately register dozens of
// callbacks), the population tail a one-size-fits-all quota tramples.
func (b *BenignApp) SetHeavy(maxRegs int) { b.maxRegs = maxRegs }

// StopAfter makes the actor stop at the given virtual time.
func (b *BenignApp) StopAfter(t time.Duration) { b.stopAt = t }

// SetAutoRestart toggles relaunch-after-chaos, mirroring the attacker's:
// chaos kills and soft reboots relaunch the app instead of stopping it.
func (b *BenignApp) SetAutoRestart(on bool) { b.autoRestart = on }

// Restarts returns how many times the app relaunched after chaos deaths.
func (b *BenignApp) Restarts() int { return b.restarts }

// relaunch restarts the app and rebuilds its service clients. Any
// service still down defers the whole relaunch to a fixed retry cadence;
// held registrations were torn down with the old process, so the
// registration count resets.
func (b *BenignApp) relaunch() error {
	b.app.Start()
	clients := make(map[string]*services.Client, len(b.services))
	for _, svc := range b.services {
		c, err := b.dev.NewClient(b.app, svc)
		if err != nil {
			b.due = b.dev.Clock().Now() + restartRetryInterval
			return nil
		}
		clients[svc] = c
	}
	b.clients = clients
	b.regs = 0
	b.restarts++
	b.due = b.pace.next(b.dev.Clock().Now())
	return nil
}

// Due implements Actor.
func (b *BenignApp) Due() time.Duration { return b.due }

// Done implements Actor.
func (b *BenignApp) Done() bool {
	if b.failed != nil {
		return true
	}
	return b.stopAt > 0 && b.dev.Clock().Now() >= b.stopAt
}

// Step implements Actor: one innocent call, or a bounded registration.
func (b *BenignApp) Step() error {
	if !b.app.Running() {
		if b.autoRestart && chaosRestartable(b.app.LastExitReason()) {
			return b.relaunch()
		}
		b.failed = errors.New("workload: benign app dead")
		return b.failed
	}
	svc := b.services[b.rng.Intn(len(b.services))]
	c := b.clients[svc]
	var err error
	if b.regs < b.maxRegs && b.rng.Intn(10) == 0 {
		// The app registers a long-lived listener the proper way — at
		// most maxRegs of them, like real apps do.
		row := firstExploitable(svc)
		if row != nil && permissionOK(b.dev, b.app, row.Permission) {
			err = c.Register(row.Method)
			switch {
			case err == nil:
				b.regs++
			case errors.Is(err, services.ErrQuotaExceeded):
				b.refusals++
				err = nil
			}
		}
	} else {
		switch b.rng.Intn(3) {
		case 0:
			err = c.Call("getState")
		case 1:
			err = c.Call("checkAccess")
		default:
			err = c.Call("noteEvent")
		}
	}
	if err != nil && (errors.Is(err, binder.ErrDeadObject) || errors.Is(err, services.ErrRetryExhausted)) {
		if b.autoRestart {
			return b.relaunch()
		}
		b.failed = err
		return err
	}
	b.calls++
	b.due = b.pace.next(b.dev.Clock().Now())
	return nil
}

func firstExploitable(svc string) *catalog.Interface {
	for _, row := range catalog.InterfacesForService(svc) {
		if row.Exploitable() && row.Permission == "" {
			r := row
			return &r
		}
	}
	return nil
}

func permissionOK(dev *device.Device, app *apps.App, p permissions.Permission) bool {
	return p == "" || dev.Permissions().Check(app.Uid(), p)
}

// ChattyApp is the Fig. 9 bystander: benign but IPC-heavy, firing
// innocent calls with intervals uniform in [0, 100 ms] (§V-C: "the benign
// app keeps triggering IPC calls with the interval between two IPC calls
// varying between 0 and 100 ms").
type ChattyApp struct {
	dev    *device.Device
	app    *apps.App
	client *services.Client
	pace   arrival
	due    time.Duration
	calls  int
	failed error
}

// NewChattyApp builds the bystander against the audio service.
func NewChattyApp(dev *device.Device, app *apps.App, seed int64) (*ChattyApp, error) {
	c, err := dev.NewClient(app, "audio")
	if err != nil {
		return nil, err
	}
	pace := uniformArrival{rng: dev.Rand(seed), span: int64(100 * time.Millisecond)}
	return &ChattyApp{dev: dev, app: app, client: c, pace: pace, due: dev.Clock().Now()}, nil
}

// App returns the underlying app.
func (c *ChattyApp) App() *apps.App { return c.app }

// Calls returns the number of issued calls.
func (c *ChattyApp) Calls() int { return c.calls }

// Due implements Actor.
func (c *ChattyApp) Due() time.Duration { return c.due }

// Done implements Actor.
func (c *ChattyApp) Done() bool { return c.failed != nil }

// Step implements Actor.
func (c *ChattyApp) Step() error {
	if !c.app.Running() {
		c.failed = errors.New("workload: chatty app dead")
		return c.failed
	}
	if err := c.client.Call("getState"); err != nil {
		if errors.Is(err, binder.ErrDeadObject) {
			c.failed = err
			return err
		}
	}
	c.calls++
	c.due = c.pace.next(c.dev.Clock().Now())
	return nil
}

// Population installs and returns n benign apps as actors on a scheduler.
func Population(dev *device.Device, sched *Scheduler, n int, seed int64, interval time.Duration) ([]*BenignApp, error) {
	if interval == 0 {
		interval = 2 * time.Second
	}
	out := make([]*BenignApp, 0, n)
	for i := 0; i < n; i++ {
		app, err := dev.Apps().Install(fmt.Sprintf("com.play.top%03d", i))
		if err != nil {
			return nil, err
		}
		app.Start()
		b, err := NewBenignApp(dev, app, seed+int64(i), interval)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		if sched != nil {
			sched.Add(b)
		}
	}
	return out, nil
}

// WellBehavedApp models a developer following the SDK happy path: it only
// touches helper-guarded interfaces (Table II) through their helper
// classes, acquiring and releasing within the documented limits. It is
// the citizen Android's client-side quotas actually protect — and the
// contrast to the raw-binder attacker.
type WellBehavedApp struct {
	dev     *device.Device
	app     *apps.App
	rng     *rand.Rand
	pace    arrival
	helpers []*services.Helper
	due     time.Duration
	actions int
	failed  error
}

// NewWellBehavedApp opens helpers on every helper-guarded interface the
// app can obtain permissions for.
func NewWellBehavedApp(dev *device.Device, app *apps.App, seed int64) (*WellBehavedApp, error) {
	rng := dev.Rand(seed)
	w := &WellBehavedApp{
		dev: dev, app: app, rng: rng,
		pace: uniformArrival{rng: rng, span: int64(500 * time.Millisecond)},
		due:  dev.Clock().Now(),
	}
	clients := make(map[string]*services.Client)
	for _, row := range catalog.Interfaces() {
		if row.Protection != catalog.HelperGuard {
			continue
		}
		if row.Permission != "" {
			if !dev.Permissions().ObtainableByApp(row.Permission) {
				continue
			}
			if err := dev.Permissions().Grant(app.Uid(), row.Permission); err != nil {
				return nil, err
			}
		}
		c, ok := clients[row.Service]
		if !ok {
			var err error
			c, err = dev.NewClient(app, row.Service)
			if err != nil {
				return nil, err
			}
			clients[row.Service] = c
		}
		w.helpers = append(w.helpers, services.NewHelper(c, row))
	}
	return w, nil
}

// Actions returns how many acquire/release operations ran.
func (w *WellBehavedApp) Actions() int { return w.actions }

// Holdings returns the total helper-tracked registrations currently held.
func (w *WellBehavedApp) Holdings() int {
	n := 0
	for _, h := range w.helpers {
		n += h.Active()
	}
	return n
}

// Due implements Actor.
func (w *WellBehavedApp) Due() time.Duration { return w.due }

// Done implements Actor.
func (w *WellBehavedApp) Done() bool { return w.failed != nil }

// Step acquires or releases through a random helper. Helpers enforce the
// quota client-side, so over-limit acquires fail locally and are simply
// retried later — exactly the developer experience the guards were built
// for.
func (w *WellBehavedApp) Step() error {
	if !w.app.Running() {
		w.failed = errors.New("workload: well-behaved app dead")
		return w.failed
	}
	h := w.helpers[w.rng.Intn(len(w.helpers))]
	var err error
	if h.Active() > 0 && w.rng.Intn(2) == 0 {
		err = h.Release()
	} else {
		err = h.Acquire()
	}
	if err != nil && errors.Is(err, binder.ErrDeadObject) {
		w.failed = err
		return err
	}
	w.actions++
	w.due = w.pace.next(w.dev.Clock().Now())
	return nil
}
