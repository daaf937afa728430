package apps

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/simclock"
)

// sliceAppEntry and sliceAppStore are the registration store AppService
// kept before binder.CallbackList: a slice in registration order, an
// entry found by a linear scan and cut by shifting the tail down, and
// link errors ignored. It is the oracle
// TestCallbackListMatchesSliceStore holds the list to.
type sliceAppEntry struct {
	ref  *binder.BinderRef
	link *binder.DeathLink
	pid  kernel.Pid
}

type sliceAppStore struct {
	entries []*sliceAppEntry
}

func (o *sliceAppStore) onTransact(call *binder.Call) error {
	ref, err := call.Data.ReadStrongBinder()
	if err != nil {
		return err
	}
	if ref == nil {
		return nil
	}
	ref.Retain()
	e := &sliceAppEntry{ref: ref, pid: call.SenderPid}
	if link, lerr := ref.Binder().LinkToDeath(func() { o.drop(e) }); lerr == nil {
		e.link = link
	}
	o.entries = append(o.entries, e)
	call.Reply.WriteInt32(0)
	return nil
}

func (o *sliceAppStore) drop(e *sliceAppEntry) {
	for i, cur := range o.entries {
		if cur == e {
			o.entries = slices.Delete(o.entries, i, i+1)
			break
		}
	}
	if e.link != nil {
		e.link.Unlink()
	}
	e.ref.Release()
}

// appStoreRig is one side of the differential: PicoService backed by an
// AppService or, on the oracle side, by a sliceAppStore. Both sides
// install and start the same apps in the same order and record every
// callback delivery to log.
type appStoreRig struct {
	k       *kernel.Kernel
	d       *binder.Driver
	mgr     *Manager
	reg     *ServiceRegistry
	owner   *App
	watcher *kernel.Process
	svc     *AppService
	oracle  *sliceAppStore
	clients []*kernel.Process
	// proxies and binders hold each client's proxy on the service and its
	// registered callbacks, by client index.
	proxies []*binder.BinderRef
	binders [][]*binder.LocalBinder
	log     []string
}

var errRefused = errors.New("callback refused")

func newAppStoreRig(t *testing.T, oracle bool) *appStoreRig {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := binder.New(k, binder.Config{})
	r := &appStoreRig{k: k, d: d, mgr: NewManager(k, permissions.NewManager(nil)), reg: NewServiceRegistry(d)}
	r.watcher = k.Spawn(kernel.SpawnConfig{Name: "watcher", Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
	r.owner, _ = r.mgr.Install("com.svox.pico")
	rows := catalog.PrebuiltAppInterfaces()[:1] // PicoService.setCallback()
	if !oracle {
		svc, err := NewAppService(r.owner, d, clock, r.reg, rows, 7)
		if err != nil {
			t.Fatal(err)
		}
		r.svc = svc
		return r
	}
	r.oracle = &sliceAppStore{}
	stub := d.NewLocalBinder(r.owner.Start(), serviceClassOf(rows[0].Method), binder.TransactorFunc(r.oracle.onTransact))
	if err := r.reg.Publish(AppServiceName(rows[0]), stub); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *appStoreRig) addClient(t *testing.T) {
	t.Helper()
	a, err := r.mgr.Install(fmt.Sprintf("com.client%d", len(r.clients)))
	if err != nil {
		t.Fatal(err)
	}
	proc := a.Start()
	ref, err := r.reg.Bind(AppServiceName(catalog.PrebuiltAppInterfaces()[0]), proc)
	if err != nil {
		t.Fatal(err)
	}
	r.clients = append(r.clients, proc)
	r.proxies = append(r.proxies, ref)
	r.binders = append(r.binders, nil)
}

// register calls setCallback with a callback binder labelled label; a
// refusing one logs the delivery attempt and fails it.
func (r *appStoreRig) register(t *testing.T, client int, label string, refuse bool) {
	t.Helper()
	cb := r.d.NewLocalBinder(r.clients[client], "Callback", binder.TransactorFunc(func(*binder.Call) error {
		r.log = append(r.log, label)
		if refuse {
			return errRefused
		}
		return nil
	}))
	r.binders[client] = append(r.binders[client], cb)
	data := binder.NewParcel()
	data.WriteStrongBinder(cb)
	if err := r.proxies[client].Binder().Transact(1, data, nil); err != nil {
		t.Fatal(err)
	}
}

// kill kills victim's process; when nested >= 0, a watcher's death
// recipient on victim's callback binder j kills client nested from
// inside victim's death walk.
func (r *appStoreRig) kill(t *testing.T, victim, j, nested int) {
	t.Helper()
	if nested >= 0 {
		ref, err := r.d.Materialize(r.watcher, r.binders[victim][j])
		if err != nil {
			t.Fatal(err)
		}
		pid := r.clients[nested].Pid()
		if _, err := ref.Binder().LinkToDeath(func() {
			r.log = append(r.log, fmt.Sprintf("nested kill of client %d", nested))
			r.k.Kill(pid, "nested")
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.k.Kill(r.clients[victim].Pid(), "test"); err != nil {
		t.Fatal(err)
	}
}

// observe renders the entries in order, as the registrant's pid and the
// label its callback logs when called, EntryCount, and the service
// owner's JGR count.
func (r *appStoreRig) observe() []string {
	var refs []*binder.BinderRef
	count := 0
	if r.svc != nil {
		for cb := r.svc.entries["setCallback"].Front(); cb != nil; cb = cb.Next() {
			refs = append(refs, cb.Ref())
		}
		count = r.svc.EntryCount("setCallback")
	} else {
		for _, e := range r.oracle.entries {
			refs = append(refs, e.ref)
		}
		count = len(r.oracle.entries)
	}
	r.log = r.log[:0]
	var pids []kernel.Pid
	for _, ref := range refs {
		pids = append(pids, ref.Binder().Owner().Pid())
		_ = ref.Binder().Transact(1, nil, nil)
	}
	vm := r.owner.Proc().VM()
	vm.GC()
	return []string{
		fmt.Sprintf("entries %v labels %v", pids, r.log),
		fmt.Sprintf("count %d owner JGR %d", count, vm.GlobalRefCount()),
	}
}

// TestCallbackListMatchesSliceStore drives seeded register and
// client-death steps, some deaths killing a second registrant from
// inside a death recipient, into an AppService and into the slice store
// it replaced, and checks after every step that both hold the same
// entries in the same order and that the service owner's JGR count
// agrees. AppService has no unregister method; the services package's
// test of the same name covers unregister.
func TestCallbackListMatchesSliceStore(t *testing.T) {
	list, slice := newAppStoreRig(t, false), newAppStoreRig(t, true)
	rigs := []*appStoreRig{list, slice}
	rng := rand.New(rand.NewSource(1))
	var alive []int
	nested, peak := 0, 0
	for step := 0; step < 400; step++ {
		var what string
		if len(alive) < 2 || rng.Intn(6) > 0 {
			if len(alive) < 2 || rng.Intn(6) == 0 {
				for _, r := range rigs {
					r.addClient(t)
				}
				alive = append(alive, len(list.clients)-1)
			}
			c := alive[rng.Intn(len(alive))]
			refuse := rng.Intn(3) == 0
			what = fmt.Sprintf("client %d registers", c)
			for _, r := range rigs {
				r.register(t, c, fmt.Sprintf("s%d", step), refuse)
			}
		} else {
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
				r.kill(t, c, j, second)
			}
		}
		got, want := list.observe(), slice.observe()
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): the callback list diverged from the slice store\nlist:  %q\nslice: %q", step, what, got, want)
		}
		peak = max(peak, list.svc.EntryCount("setCallback"))
	}
	if nested < 15 || peak < 30 {
		t.Fatalf("scenario too thin: %d nested deaths, peak %d entries", nested, peak)
	}
}
