package services

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/simclock"
)

// sliceEntry and sliceStore are the registration store Service kept
// before binder.CallbackList: one slice per method in registration
// order, searched linearly and cut by shifting the tail down. A
// sliceStore answers the catalogued service's transaction codes, so the
// same Client drives it, and it is the oracle
// TestCallbackListMatchesSliceStore holds the list to.
type sliceEntry struct {
	ref    *binder.BinderRef
	link   *binder.DeathLink
	caller kernel.Pid
	pkg    string
}

type sliceStore struct {
	names   map[binder.TxCode]string
	entries map[string][]*sliceEntry
}

func (o *sliceStore) onTransact(call *binder.Call) error {
	name := o.names[call.Code]
	pkg, err := call.Data.ReadString()
	if err != nil {
		return err
	}
	if m, ok := strings.CutPrefix(name, UnregisterPrefix); ok {
		for _, e := range o.entries[m] {
			if e.caller == call.SenderPid {
				o.dropEntry(m, e)
				return nil
			}
		}
		return ErrNoEntry
	}
	ref, err := call.Data.ReadStrongBinder()
	if err != nil {
		return err
	}
	ref.Retain()
	e := &sliceEntry{ref: ref, caller: call.SenderPid, pkg: pkg}
	link, err := ref.Binder().LinkToDeath(func() { o.dropEntry(name, e) })
	if err != nil && !errors.Is(err, binder.ErrLocalBinder) {
		ref.Release()
		return err
	}
	e.link = link
	o.entries[name] = append(o.entries[name], e)
	return nil
}

func (o *sliceStore) dropEntry(name string, e *sliceEntry) {
	es := o.entries[name]
	for i, cur := range es {
		if cur == e {
			o.entries[name] = slices.Delete(es, i, i+1)
			break
		}
	}
	if e.link != nil {
		e.link.Unlink()
	}
	e.ref.Release()
}

func (o *sliceStore) countByPid(name string, pid kernel.Pid) int {
	n := 0
	for _, e := range o.entries[name] {
		if e.caller == pid {
			n++
		}
	}
	return n
}

func (o *sliceStore) countByPackage(name, pkg string) int {
	n := 0
	for _, e := range o.entries[name] {
		if e.pkg == pkg {
			n++
		}
	}
	return n
}

func (o *sliceStore) notifyListeners(name, payload string) int {
	delivered := 0
	entries := append([]*sliceEntry(nil), o.entries[name]...)
	data, reply := binder.ObtainParcel(), binder.ObtainParcel()
	defer data.Recycle()
	defer reply.Recycle()
	for _, e := range entries {
		data.Reset()
		reply.Reset()
		data.WriteString(payload)
		if err := e.ref.Binder().Transact(1, data, reply); err != nil {
			continue
		}
		delivered++
	}
	return delivered
}

// storeRig is one side of the callback-list differential: a print
// service in system_server, backed by a Service or, on the oracle side,
// by a sliceStore. Both sides spawn the same processes in the same order
// and record every callback delivery to log.
type storeRig struct {
	k       *kernel.Kernel
	d       *binder.Driver
	sm      *binder.ServiceManager
	server  *kernel.Process
	watcher *kernel.Process
	svc     *Service
	oracle  *sliceStore
	clients []*Client
	// binders holds each client's registered callbacks, by client index.
	binders [][]*binder.LocalBinder
	log     []string
}

var (
	storeMethods  = []string{"print", "addPrintJobStateChangeListener"}
	storePackages = []string{"com.a", "com.b", "com.c"}
	errRefused    = errors.New("callback refused")
)

func newStoreRig(t *testing.T, oracle bool) *storeRig {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := binder.New(k, binder.Config{})
	r := &storeRig{k: k, d: d, sm: binder.NewServiceManager(d)}
	r.server = k.Spawn(kernel.SpawnConfig{
		Name: kernel.SystemServerName, Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj,
		VM: art.Config{GCTrigger: -1},
	})
	r.watcher = k.Spawn(kernel.SpawnConfig{Name: "watcher", Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
	meta, _ := catalog.ServiceByName("print")
	if !oracle {
		svc, err := New(Config{
			Meta: meta, Host: r.server, Driver: d, Clock: clock,
			Perms: permissions.NewManager(nil), Seed: 1,
		}, r.sm)
		if err != nil {
			t.Fatal(err)
		}
		r.svc = svc
		return r
	}
	r.oracle = &sliceStore{names: map[binder.TxCode]string{}, entries: map[string][]*sliceEntry{}}
	for name, code := range MethodCodes(catalog.InterfacesForService("print")) {
		r.oracle.names[code] = name
	}
	if err := r.sm.AddService("print", d.NewLocalBinder(r.server, meta.Class, binder.TransactorFunc(r.oracle.onTransact))); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *storeRig) addClient(t *testing.T, uid kernel.Uid) {
	t.Helper()
	proc := r.k.Spawn(kernel.SpawnConfig{Name: fmt.Sprintf("app%d", uid), Uid: uid})
	c, err := NewClient(r.sm, r.d, proc, "com.a", "print")
	if err != nil {
		t.Fatal(err)
	}
	r.clients = append(r.clients, c)
	r.binders = append(r.binders, nil)
}

// register registers a callback binder labelled label; a refusing one
// logs the delivery attempt and fails it, like a token binder.
func (r *storeRig) register(client int, method, pkg, label string, refuse bool) error {
	c := r.clients[client]
	cb := r.d.NewLocalBinder(c.Proc(), "Callback", binder.TransactorFunc(func(*binder.Call) error {
		r.log = append(r.log, label)
		if refuse {
			return errRefused
		}
		return nil
	}))
	r.binders[client] = append(r.binders[client], cb)
	return c.RegisterAs(method, pkg, cb)
}

// killNested kills victim's process; when nested >= 0, a watcher's death
// recipient on victim's callback binder j kills client nested from
// inside victim's death walk.
func (r *storeRig) killNested(t *testing.T, victim, j, nested int) {
	t.Helper()
	if nested >= 0 {
		ref, err := r.d.Materialize(r.watcher, r.binders[victim][j])
		if err != nil {
			t.Fatal(err)
		}
		pid := r.clients[nested].Proc().Pid()
		if _, err := ref.Binder().LinkToDeath(func() {
			r.log = append(r.log, fmt.Sprintf("nested kill of client %d", nested))
			r.k.Kill(pid, "nested")
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.k.Kill(r.clients[victim].Proc().Pid(), "test"); err != nil {
		t.Fatal(err)
	}
}

// observe renders everything the store answers: each method's entries
// in order as caller pid and package, EntryCount, the per-pid and
// per-package counts, TotalEntries, the server's JGR count, and each
// method's NotifyListeners delivery count and delivery order.
func (r *storeRig) observe() []string {
	var out []string
	for _, m := range storeMethods {
		var (
			entries        []string
			count          int
			countByPid     func(string, kernel.Pid) int
			countByPackage func(string, string) int
		)
		if r.svc != nil {
			for cb := r.svc.entries[m].Front(); cb != nil; cb = cb.Next() {
				entries = append(entries, fmt.Sprintf("%d/%s", cb.Cookie.pid, cb.Cookie.pkg))
			}
			count, countByPid, countByPackage = r.svc.EntryCount(m), r.svc.countByPid, r.svc.countByPackage
		} else {
			for _, e := range r.oracle.entries[m] {
				entries = append(entries, fmt.Sprintf("%d/%s", e.caller, e.pkg))
			}
			count, countByPid, countByPackage = len(r.oracle.entries[m]), r.oracle.countByPid, r.oracle.countByPackage
		}
		byPid, byPkg := map[kernel.Pid]int{}, map[string]int{}
		for _, c := range r.clients {
			byPid[c.Proc().Pid()] = countByPid(m, c.Proc().Pid())
		}
		for _, pkg := range storePackages {
			byPkg[pkg] = countByPackage(m, pkg)
		}
		out = append(out, fmt.Sprintf("%s entries %v count %d by pid %v by package %v", m, entries, count, byPid, byPkg))
	}
	total := 0
	if r.svc != nil {
		total = r.svc.TotalEntries()
	} else {
		for _, es := range r.oracle.entries {
			total += len(es)
		}
	}
	r.server.VM().GC()
	out = append(out, fmt.Sprintf("total %d server JGR %d", total, r.server.VM().GlobalRefCount()))
	for _, m := range storeMethods {
		r.log = r.log[:0]
		var n int
		if r.svc != nil {
			n = r.svc.NotifyListeners(m, "event")
		} else {
			n = r.oracle.notifyListeners(m, "event")
		}
		out = append(out, fmt.Sprintf("%s delivered %d in order %v", m, n, r.log))
	}
	return out
}

// TestCallbackListMatchesSliceStore drives seeded register, unregister
// and client-death steps, some deaths killing a second registrant from
// inside a death recipient, into a Service and into the slice store it
// replaced, and checks after every step that both answer alike: entry
// order, counts, delivery order and the server's JGR count.
func TestCallbackListMatchesSliceStore(t *testing.T) {
	list, slice := newStoreRig(t, false), newStoreRig(t, true)
	rigs := []*storeRig{list, slice}
	rng := rand.New(rand.NewSource(1))
	var alive []int
	nextUid := kernel.Uid(10100)
	nested, unregistered, peak := 0, 0, 0
	for step := 0; step < 500; step++ {
		var what string
		switch op := rng.Intn(20); {
		case op < 13 || len(alive) < 2: // register, from a new client now and then
			if len(alive) < 2 || rng.Intn(6) == 0 {
				for _, r := range rigs {
					r.addClient(t, nextUid)
				}
				nextUid++
				alive = append(alive, len(list.clients)-1)
			}
			c := alive[rng.Intn(len(alive))]
			m := storeMethods[rng.Intn(len(storeMethods))]
			pkg := storePackages[rng.Intn(len(storePackages))]
			refuse := rng.Intn(3) == 0
			what = fmt.Sprintf("client %d registers on %s as %s", c, m, pkg)
			for _, r := range rigs {
				if err := r.register(c, m, pkg, fmt.Sprintf("s%d", step), refuse); err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
			}
		case op < 18:
			c := alive[rng.Intn(len(alive))]
			m := storeMethods[rng.Intn(len(storeMethods))]
			what = fmt.Sprintf("client %d unregisters from %s", c, m)
			errList, errSlice := list.clients[c].Unregister(m), slice.clients[c].Unregister(m)
			if (errList == nil) != (errSlice == nil) {
				t.Fatalf("step %d: %s: list %v, slice store %v", step, what, errList, errSlice)
			}
			if errList == nil {
				unregistered++
			}
		default:
			i := rng.Intn(len(alive))
			c := alive[i]
			alive = slices.Delete(alive, i, i+1)
			second, j := -1, 0
			if n := len(list.binders[c]); n > 0 && rng.Intn(2) == 0 {
				second = alive[rng.Intn(len(alive))]
				j = rng.Intn(n)
				alive = slices.DeleteFunc(alive, func(x int) bool { return x == second })
				nested++
			}
			what = fmt.Sprintf("client %d dies, killing %d from binder %d's recipient", c, second, j)
			for _, r := range rigs {
				r.killNested(t, c, j, second)
			}
		}
		got, want := list.observe(), slice.observe()
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): the callback list diverged from the slice store\nlist:  %q\nslice: %q", step, what, got, want)
		}
		peak = max(peak, list.svc.TotalEntries())
	}
	if nested < 10 || unregistered < 50 || peak < 40 {
		t.Fatalf("scenario too thin: %d nested deaths, %d unregisters, peak %d entries", nested, unregistered, peak)
	}
}

// BenchmarkKillRegistrant times the death of one client holding N
// registrations on audio.startWatchingRoutes, the attacker the defender
// kills in the paper's §V: one death recipient fires per registration
// and each takes its entry off the list. Only the Kill is timed; every
// iteration registers its N tokens on a fresh service with the timer
// stopped.
func BenchmarkKillRegistrant(b *testing.B) {
	for _, n := range []int{1000, 6000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := newSvcRig(b, "audio", art.Config{})
				c := r.client(b, "com.evil.app")
				for j := 0; j < n; j++ {
					if err := c.Register("startWatchingRoutes"); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := r.k.Kill(r.app.Pid(), "bench"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := r.svc.EntryCount("startWatchingRoutes"); got != 0 {
					b.Fatalf("%d entries outlived their client", got)
				}
			}
		})
	}
}
