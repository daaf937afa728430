package binder

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/art"
	"repro/internal/kernel"
	"repro/internal/simclock"
)

// rig is a minimal two-process device for binder tests.
type rig struct {
	clock  *simclock.Clock
	k      *kernel.Kernel
	d      *Driver
	sm     *ServiceManager
	server *kernel.Process // system_server stand-in
	app    *kernel.Process
}

func newRig(t *testing.T, serverVM art.Config) *rig {
	t.Helper()
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := New(k, Config{})
	server := k.Spawn(kernel.SpawnConfig{
		Name: kernel.SystemServerName, Uid: kernel.SystemUid,
		OomScoreAdj: kernel.SystemAdj, VM: serverVM,
	})
	app := k.Spawn(kernel.SpawnConfig{Name: "com.evil.app", Uid: 10061})
	return &rig{clock: clock, k: k, d: d, sm: NewServiceManager(d), server: server, app: app}
}

// registerEcho installs a service that echoes an int32 and reports caller
// identity.
func (r *rig) registerEcho(t *testing.T, name string) {
	t.Helper()
	stub := r.d.NewLocalBinder(r.server, "EchoService", TransactorFunc(func(c *Call) error {
		v, err := c.Data.ReadInt32()
		if err != nil {
			return err
		}
		c.Reply.WriteInt32(v + 1)
		c.Reply.WriteInt32(int32(c.SenderUid))
		return nil
	}))
	if err := r.sm.AddService(name, stub); err != nil {
		t.Fatal(err)
	}
}

// registerRetainer installs a service that retains every binder it
// receives — the shape of every vulnerable interface.
func (r *rig) registerRetainer(t *testing.T, name string, retained *[]*BinderRef) {
	t.Helper()
	stub := r.d.NewLocalBinder(r.server, "RetainerService", TransactorFunc(func(c *Call) error {
		ref, err := c.Data.ReadStrongBinder()
		if err != nil {
			return err
		}
		ref.Retain()
		*retained = append(*retained, ref)
		return nil
	}))
	if err := r.sm.AddService(name, stub); err != nil {
		t.Fatal(err)
	}
}

func TestCrossProcessTransact(t *testing.T) {
	r := newRig(t, art.Config{})
	r.registerEcho(t, "echo")

	svc, err := r.sm.GetService("echo", r.app)
	if err != nil {
		t.Fatal(err)
	}
	data, reply := NewParcel(), NewParcel()
	data.WriteInt32(41)
	if err := svc.Binder().Transact(1, data, reply); err != nil {
		t.Fatal(err)
	}
	got, err := reply.ReadInt32()
	if err != nil || got != 42 {
		t.Fatalf("echo reply = %d, %v", got, err)
	}
	uid, _ := reply.ReadInt32()
	if kernel.Uid(uid) != r.app.Uid() {
		t.Fatalf("service saw caller uid %d, want %d", uid, r.app.Uid())
	}
	if r.d.TotalTransactions() != 1 {
		t.Fatalf("TotalTransactions = %d, want 1", r.d.TotalTransactions())
	}
}

func TestTransactAdvancesClockByPayload(t *testing.T) {
	r := newRig(t, art.Config{})
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)

	small, reply := NewParcel(), NewParcel()
	small.WriteInt32(1)
	t0 := r.clock.Now()
	svc.Binder().Transact(1, small, reply)
	smallCost := r.clock.Now() - t0

	big, reply2 := NewParcel(), NewParcel()
	big.WriteInt32(1)
	big.WriteBytes(make([]byte, 100*1024))
	t1 := r.clock.Now()
	svc.Binder().Transact(1, big, reply2)
	bigCost := r.clock.Now() - t1

	if bigCost <= smallCost {
		t.Fatalf("payload cost not charged: small=%v big=%v", smallCost, bigCost)
	}
	wantExtra := time.Duration(int64(DefaultLatency.PerKB) * (100*1024 + 9) / 1024)
	if diff := bigCost - smallCost; diff < wantExtra/2 || diff > wantExtra*2 {
		t.Fatalf("payload cost %v implausible (want ≈%v)", diff, wantExtra)
	}
}

func TestTransactionTooLarge(t *testing.T) {
	r := newRig(t, art.Config{})
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)
	data := NewParcel()
	data.WriteBytes(make([]byte, MaxTransactionBytes+1))
	err := svc.Binder().Transact(1, data, nil)
	if !errors.Is(err, ErrTransactionTooLarge) {
		t.Fatalf("error = %v, want ErrTransactionTooLarge", err)
	}
}

func TestUnretainedBinderIsGCed(t *testing.T) {
	r := newRig(t, art.Config{})
	stub := r.d.NewLocalBinder(r.server, "InnocentService", TransactorFunc(func(c *Call) error {
		// Reads the binder but never retains it (sift rule 2, §III-C3).
		_, err := c.Data.ReadStrongBinder()
		return err
	}))
	r.sm.AddService("innocent", stub)
	svc, _ := r.sm.GetService("innocent", r.app)

	base := r.server.VM().GlobalRefCount()
	for i := 0; i < 50; i++ {
		data := NewParcel()
		data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	grown := r.server.VM().GlobalRefCount()
	if grown <= base {
		t.Fatalf("no transient JGR growth observed (base=%d now=%d)", base, grown)
	}
	r.server.VM().GC()
	if got := r.server.VM().GlobalRefCount(); got != base {
		t.Fatalf("GC did not reclaim unretained refs: %d, want %d", got, base)
	}
}

func TestRetainedBindersSurviveGCAndExhaust(t *testing.T) {
	var retained []*BinderRef
	r := newRig(t, art.Config{MaxGlobalRefs: 100})
	r.registerRetainer(t, "vuln", &retained)
	svc, _ := r.sm.GetService("vuln", r.app)

	for i := 0; r.server.Alive(); i++ {
		if i > 300 {
			t.Fatal("server survived far beyond its JGR cap")
		}
		data := NewParcel()
		data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		err := svc.Binder().Transact(1, data, nil)
		if err != nil && !r.server.Alive() {
			break // runtime aborted mid-call
		}
		r.server.VM().GC() // GC must not help: refs are retained
	}
	if r.server.Alive() {
		t.Fatal("JGRE attack failed against retainer service")
	}
	if r.k.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1 (system_server died)", r.k.SoftReboots())
	}
	if r.app.Alive() {
		t.Fatal("attacker survived the soft reboot")
	}
}

func TestProxyCachePreventsDuplicateJGR(t *testing.T) {
	var retained []*BinderRef
	r := newRig(t, art.Config{})
	r.registerRetainer(t, "vuln", &retained)
	svc, _ := r.sm.GetService("vuln", r.app)

	// Sending the SAME binder repeatedly must not grow the victim's
	// table: javaObjectForIBinder returns the cached proxy.
	token := r.d.NewLocalBinder(r.app, "android.os.Binder", nil)
	base := r.server.VM().GlobalRefCount()
	for i := 0; i < 20; i++ {
		data := NewParcel()
		data.WriteStrongBinder(token)
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.server.VM().GlobalRefCount(); got != base+1 {
		t.Fatalf("server JGR = %d, want %d (one proxy for one node)", got, base+1)
	}
}

func TestSenderSideJavaBBinderRef(t *testing.T) {
	var retained []*BinderRef
	r := newRig(t, art.Config{})
	r.registerRetainer(t, "vuln", &retained)
	svc, _ := r.sm.GetService("vuln", r.app)

	appBase := r.app.VM().GlobalRefCount()
	const n = 25
	for i := 0; i < n; i++ {
		data := NewParcel()
		data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The attacker's own table grows too: one JavaBBinder pin per token
	// with a live remote reference (§III-C2's nativeWriteStrongBinder).
	if got := r.app.VM().GlobalRefCount(); got != appBase+n {
		t.Fatalf("attacker JGR = %d, want %d", got, appBase+n)
	}
	// Releasing the service side frees the sender pins.
	for _, ref := range retained {
		ref.Release()
	}
	if got := r.app.VM().GlobalRefCount(); got != appBase {
		t.Fatalf("attacker JGR after release = %d, want %d", got, appBase)
	}
}

func TestDeathRecipientFreesServiceSide(t *testing.T) {
	r := newRig(t, art.Config{})
	type entry struct {
		ref  *BinderRef
		link *DeathLink
	}
	var entries []*entry
	stub := r.d.NewLocalBinder(r.server, "ListenerService", TransactorFunc(func(c *Call) error {
		ref, err := c.Data.ReadStrongBinder()
		if err != nil {
			return err
		}
		ref.Retain()
		e := &entry{ref: ref}
		link, err := ref.Binder().LinkToDeath(func() { e.ref.Release() })
		if err != nil {
			return err
		}
		e.link = link
		entries = append(entries, e)
		return nil
	}))
	r.sm.AddService("listener", stub)
	svc, _ := r.sm.GetService("listener", r.app)

	// base is 1: the app's proxy on the service stub pins the stub's
	// owner-side JavaBBinder reference in the server.
	base := r.server.VM().GlobalRefCount()
	if base != 1 {
		t.Fatalf("baseline server JGR = %d, want 1 (stub owner pin)", base)
	}
	for i := 0; i < 10; i++ {
		data := NewParcel()
		data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	// 10 retained proxies + 10 death-recipient refs.
	if got := r.server.VM().GlobalRefCount(); got != base+20 {
		t.Fatalf("server JGR = %d, want %d", got, base+20)
	}
	// Client death fires recipients; the service releases everything,
	// and the dead client's proxy on the stub releases the owner pin too.
	r.k.Kill(r.app.Pid(), "user removed app")
	if got := r.server.VM().GlobalRefCount(); got != 0 {
		t.Fatalf("server JGR after client death = %d, want 0", got)
	}
}

func TestDeathLinkUnlink(t *testing.T) {
	r := newRig(t, art.Config{})
	token := r.d.NewLocalBinder(r.app, "android.os.Binder", nil)
	ref, err := r.d.Materialize(r.server, token)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	link, err := ref.Binder().LinkToDeath(func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	link.Unlink()
	link.Unlink() // idempotent
	r.k.Kill(r.app.Pid(), "bye")
	if fired {
		t.Fatal("unlinked death recipient fired")
	}
}

func TestLinkToDeathOnLocalBinder(t *testing.T) {
	r := newRig(t, art.Config{})
	lb := r.d.NewLocalBinder(r.server, "x", nil)
	if _, err := lb.LinkToDeath(func() {}); !errors.Is(err, ErrLocalBinder) {
		t.Fatalf("error = %v, want ErrLocalBinder", err)
	}
}

func TestDeadObject(t *testing.T) {
	r := newRig(t, art.Config{})
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)
	r.k.Kill(r.server.Pid(), "crash")

	data := NewParcel()
	data.WriteInt32(1)
	if err := svc.Binder().Transact(1, data, nil); !errors.Is(err, ErrDeadObject) {
		t.Fatalf("transact to dead service error = %v, want ErrDeadObject", err)
	}
	if svc.Binder().IsAlive() {
		t.Fatal("proxy to dead service claims alive")
	}
	if _, err := svc.Binder().LinkToDeath(func() {}); !errors.Is(err, ErrDeadObject) {
		t.Fatalf("linkToDeath on dead error = %v", err)
	}
}

func TestTokenBinderRejectsTransactions(t *testing.T) {
	r := newRig(t, art.Config{})
	token := r.d.NewLocalBinder(r.app, "android.os.Binder", nil)
	ref, _ := r.d.Materialize(r.server, token)
	if err := ref.Binder().Transact(1, nil, nil); !errors.Is(err, ErrUnknownTransaction) {
		t.Fatalf("error = %v, want ErrUnknownTransaction", err)
	}
}

func TestLocalBinderDirectTransact(t *testing.T) {
	r := newRig(t, art.Config{})
	stub := r.d.NewLocalBinder(r.server, "Local", TransactorFunc(func(c *Call) error {
		c.Reply.WriteString("ok")
		return nil
	}))
	reply := NewParcel()
	tx0 := r.d.TotalTransactions()
	if err := stub.Transact(1, nil, reply); err != nil {
		t.Fatal(err)
	}
	if s, _ := reply.ReadString(); s != "ok" {
		t.Fatalf("reply = %q", s)
	}
	if r.d.TotalTransactions() != tx0 {
		t.Fatal("in-process transact crossed the driver")
	}
}

func TestServiceManager(t *testing.T) {
	r := newRig(t, art.Config{})
	r.registerEcho(t, "echo")
	if err := r.sm.AddService("echo", r.d.NewLocalBinder(r.server, "x", nil)); !errors.Is(err, ErrServiceExists) {
		t.Fatalf("duplicate add error = %v", err)
	}
	// App-owned binders cannot register.
	appBinder := r.d.NewLocalBinder(r.app, "x", nil)
	if err := r.sm.AddService("evil", appBinder); !errors.Is(err, ErrNotSystem) {
		t.Fatalf("app register error = %v", err)
	}
	if _, err := r.sm.GetService("nope", r.app); !errors.Is(err, ErrServiceNotFound) {
		t.Fatalf("missing service error = %v", err)
	}
	if !r.sm.CheckService("echo") || r.sm.CheckService("nope") {
		t.Fatal("CheckService wrong")
	}
	got := r.sm.ListServices()
	if len(got) != 1 || got[0] != "echo" {
		t.Fatalf("ListServices = %v", got)
	}
	r.sm.Clear()
	if len(r.sm.ListServices()) != 0 {
		t.Fatal("Clear left services behind")
	}
}

func TestIPCLoggingToProcFS(t *testing.T) {
	r := newRig(t, art.Config{})
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)

	if err := r.d.EnableIPCLogging(); err != nil {
		t.Fatal(err)
	}
	if err := r.d.EnableIPCLogging(); err != nil {
		t.Fatalf("EnableIPCLogging not idempotent: %v", err)
	}
	for i := 0; i < 3; i++ {
		data := NewParcel()
		data.WriteInt32(int32(i))
		if err := svc.Binder().Transact(7, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	n, err := r.d.FlushLog()
	if err != nil || n != 3 {
		t.Fatalf("FlushLog = %d, %v; want 3", n, err)
	}
	var w LogColumns
	if _, err := r.d.AppendLogColumnsSince(kernel.SystemUid, r.server.Pid(), 0, &w); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("got %d records, want 3", w.Len())
	}
	if w.FromPid[0] != r.app.Pid() || w.FromUid[0] != r.app.Uid() || w.ToPid[0] != r.server.Pid() || w.Code[0] != 7 {
		t.Fatalf("record = %+v", rowsOf(&w)[0])
	}
	// Third-party apps cannot read the evidence.
	w.Reset()
	if _, err := r.d.AppendLogColumnsSince(r.app.Uid(), r.server.Pid(), 0, &w); !errors.Is(err, kernel.ErrPermissionDenied) {
		t.Fatalf("app read error = %v, want permission denied", err)
	}
	// Truncation clears the file.
	if err := r.d.TruncateLog(); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.d.AppendLogColumnsSince(kernel.SystemUid, r.server.Pid(), 0, &w); n != 0 || len(r.d.flushed) != 0 {
		t.Fatalf("after truncate: %d window records, %d flushed", n, len(r.d.flushed))
	}
}

func TestLoggingAddsLatency(t *testing.T) {
	r := newRig(t, art.Config{})
	r.registerEcho(t, "echo")
	svc, _ := r.sm.GetService("echo", r.app)

	run := func() time.Duration {
		data := NewParcel()
		data.WriteInt32(1)
		t0 := r.clock.Now()
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
		return r.clock.Now() - t0
	}
	stock := run()
	r.d.EnableIPCLogging()
	logged := run()
	r.d.DisableIPCLogging()
	if !r.d.LoggingEnabled() == false {
		t.Fatal("DisableIPCLogging did not take")
	}
	if logged <= stock {
		t.Fatalf("logging added no latency: stock=%v logged=%v", stock, logged)
	}
	back := run()
	if back != stock {
		t.Fatalf("latency after disable = %v, want %v", back, stock)
	}
}

func TestReplyCanCarryBinder(t *testing.T) {
	r := newRig(t, art.Config{})
	session := r.d.NewLocalBinder(r.server, "Session", TransactorFunc(func(c *Call) error {
		c.Reply.WriteString("session-data")
		return nil
	}))
	stub := r.d.NewLocalBinder(r.server, "Factory", TransactorFunc(func(c *Call) error {
		c.Reply.WriteStrongBinder(session)
		return nil
	}))
	r.sm.AddService("factory", stub)
	svc, _ := r.sm.GetService("factory", r.app)

	reply := NewParcel()
	if err := svc.Binder().Transact(1, nil, reply); err != nil {
		t.Fatal(err)
	}
	sess, err := reply.ReadStrongBinder()
	if err != nil || sess == nil {
		t.Fatalf("ReadStrongBinder from reply: %v, %v", sess, err)
	}
	r2 := NewParcel()
	if err := sess.Binder().Transact(2, nil, r2); err != nil {
		t.Fatal(err)
	}
	if s, _ := r2.ReadString(); s != "session-data" {
		t.Fatalf("session reply = %q", s)
	}
}

func BenchmarkTransactSmall(b *testing.B) {
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := New(k, Config{})
	server := k.Spawn(kernel.SpawnConfig{Name: kernel.SystemServerName, Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
	app := k.Spawn(kernel.SpawnConfig{Name: "app", Uid: 10001})
	sm := NewServiceManager(d)
	stub := d.NewLocalBinder(server, "Echo", TransactorFunc(func(c *Call) error {
		v, _ := c.Data.ReadInt32()
		c.Reply.WriteInt32(v)
		return nil
	}))
	sm.AddService("echo", stub)
	svc, _ := sm.GetService("echo", app)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, reply := NewParcel(), NewParcel()
		data.WriteInt32(int32(i))
		if err := svc.Binder().Transact(1, data, reply); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLocalFrameHygiene: transactions run in their own JNI local frame,
// so thousands of calls leave the root frame untouched — local references
// cannot be exhausted across calls (paper §II-A).
func TestLocalFrameHygiene(t *testing.T) {
	r := newRig(t, art.Config{})
	var retained []*BinderRef
	r.registerRetainer(t, "vuln", &retained)
	svc, _ := r.sm.GetService("vuln", r.app)
	for i := 0; i < 2000; i++ {
		data := NewParcel()
		data.WriteStrongBinder(r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		if err := svc.Binder().Transact(1, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.server.VM().LocalRefCount(); got != 0 {
		t.Fatalf("root-frame local refs = %d, want 0", got)
	}
	if got := r.server.VM().GlobalRefCount(); got < 2000 {
		t.Fatalf("global refs = %d; retention must use the global table", got)
	}
}

// reapNodesByScan is the process-death node walk the per-owner node
// counts replaced, a scan of every node the driver has minted. It is
// kept as the oracle the bounded walk is checked against.
func reapNodesByScan(d *Driver, pid kernel.Pid) {
	for _, n := range d.nodes {
		if n.dead || n.owner.Pid() != pid {
			continue
		}
		n.dead = true
		n.ownerJGR = 0
		var links []*DeathLink
		for dl := n.first; dl != nil; dl = dl.next {
			links = append(links, dl)
		}
		n.first, n.last = nil, nil
		for _, dl := range links {
			if dl.holder.proc.Alive() {
				dl.fire()
			}
		}
		n.local.node = nil
	}
}

// ownedByScan counts every pid's live nodes by scanning them all. The
// driver's per-owner counts must equal it whenever no death is being
// reaped.
func ownedByScan(d *Driver) map[kernel.Pid]int {
	out := make(map[kernel.Pid]int)
	for _, n := range d.nodes {
		if !n.dead {
			out[n.owner.Pid()]++
		}
	}
	return out
}

// reapRig is one side of the death-walk differential: a device whose
// driver reaps dead processes' nodes with its bounded walk or, when
// byScan is set, with reapNodesByScan. Every recipient firing and the
// dead-node set after every kill go to log.
type reapRig struct {
	k      *kernel.Kernel
	d      *Driver
	byScan bool
	log    []string
}

func newReapRig(prev *Driver, byScan bool) *reapRig {
	r := &reapRig{k: kernel.New(simclock.New(), kernel.Config{}), byScan: byScan}
	if byScan {
		// Kill observers run in registration order. Clearing the counts
		// just before the driver's observer leaves its bounded walk
		// nothing to visit; the scan then runs right after it, where the
		// node walk sat in onProcessDeath: once the dead process's own
		// proxies and links are released.
		r.k.OnKill(func(*kernel.Process, string) { clear(r.d.owned) })
	}
	r.d = NewReusing(prev, r.k, Config{})
	if byScan {
		r.k.OnKill(func(p *kernel.Process, _ string) { reapNodesByScan(r.d, p.Pid()) })
	}
	return r
}

func (r *reapRig) checkOwned(t *testing.T, when string) {
	t.Helper()
	if r.byScan {
		return
	}
	if want := ownedByScan(r.d); !maps.Equal(r.d.owned, want) {
		t.Fatalf("%s: per-owner node counts %v, scan %v", when, r.d.owned, want)
	}
}

func (r *reapRig) kill(t *testing.T, p *kernel.Process) {
	t.Helper()
	r.log = append(r.log, "kill "+p.Name())
	if err := r.k.Kill(p.Pid(), "test"); err != nil {
		t.Fatal(err)
	}
	var dead []Handle
	for _, n := range r.d.nodes {
		if n.dead {
			dead = append(dead, n.handle)
		}
	}
	r.log = append(r.log, fmt.Sprintf("dead nodes %v", dead))
	r.checkOwned(t, "after kill "+p.Name())
}

// play runs the differential scenario. shift spawns that many idle
// processes first, so a recycled driver sees its old pids in new roles.
func (r *reapRig) play(t *testing.T, shift int) {
	spawn := func(name string) *kernel.Process {
		return r.k.Spawn(kernel.SpawnConfig{Name: name, Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
	}
	for i := 0; i < shift; i++ {
		spawn("idle")
	}
	a, d, x, h1, h2, h3 := spawn("a"), spawn("d"), spawn("x"), spawn("h1"), spawn("h2"), spawn("h3")
	// One node each, minted in this order, so the owners' handles
	// interleave and a's and d's walks must skip other owners' nodes.
	owners := []*kernel.Process{a, d, a, x, d, a, x, a, d, h1, h1}
	lbs := make([]*LocalBinder, len(owners))
	for i, o := range owners {
		lbs[i] = r.d.NewLocalBinder(o, fmt.Sprintf("n%d", i), nil)
		r.d.HandleOf(lbs[i])
	}
	r.checkOwned(t, "after minting")
	link := func(holder *kernel.Process, i int, then func()) {
		t.Helper()
		ref, err := r.d.Materialize(holder, lbs[i])
		if err != nil {
			t.Fatal(err)
		}
		h := r.d.HandleOf(lbs[i])
		if _, err := ref.Binder().LinkToDeath(func() {
			r.log = append(r.log, fmt.Sprintf("fire %s on handle %d (n%d)", holder.Name(), h, i))
			if then != nil {
				then()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// a's first node: the first recipient kills x, a cascade inside a's
	// walk that reaps x's interleaved nodes and drops x's own link on
	// a's n5 before the walk reaches it.
	link(h2, 0, func() { r.k.Kill(x.Pid(), "cascade") })
	link(h1, 0, nil)
	link(x, 5, nil)
	link(h1, 3, nil)
	link(h1, 6, nil)
	// A recipient re-flattens two of a's binders mid-walk: n0's node is
	// already reaped, so it mints a fresh node past the walk; n7's is
	// not reached yet, so it resolves to the node the walk will reap.
	link(h3, 2, func() {
		r.log = append(r.log, fmt.Sprintf("re-flatten n0 -> handle %d, n7 -> handle %d", r.d.HandleOf(lbs[0]), r.d.HandleOf(lbs[7])))
	})
	link(h2, 7, nil)
	link(h3, 1, nil)
	link(h3, 4, nil)
	link(h3, 8, nil)
	link(h2, 9, nil)
	link(d, 10, nil)
	r.checkOwned(t, "after linking")

	r.kill(t, a)
	// A dead process's binder re-flattened after its death mints a node
	// owned by the dead pid; linking to it reports a dead object.
	ref, err := r.d.Materialize(h1, lbs[5])
	if err != nil {
		t.Fatal(err)
	}
	_, err = ref.Binder().LinkToDeath(func() {})
	r.log = append(r.log, fmt.Sprintf("re-flatten n2 -> handle %d, n5 -> handle %d, link: %v", r.d.HandleOf(lbs[2]), r.d.HandleOf(lbs[5]), err))
	r.checkOwned(t, "after re-flattening")
	r.kill(t, d)
	r.kill(t, h2) // holds links, owns no node
	r.kill(t, h1)
}

// TestDeathWalkMatchesScan checks the count-bounded process-death walk
// against reapNodesByScan: the nodes marked dead after every kill and
// the order in which death recipients fire must be identical, through a
// cascade kill inside a recipient, binders of a dead process re-flattened
// during and after its death, and a driver recycled by NewReusing.
func TestDeathWalkMatchesScan(t *testing.T) {
	bounded, scan := newReapRig(nil, false), newReapRig(nil, true)
	bounded.play(t, 0)
	scan.play(t, 0)
	if !slices.Equal(bounded.log, scan.log) {
		t.Fatalf("bounded walk diverged from the scan\nbounded: %q\nscan:    %q", bounded.log, scan.log)
	}
	for _, want := range []string{
		"fire h2 on handle 1 (n0)",
		"fire h1 on handle 4 (n3)",
		"fire h1 on handle 7 (n6)",
		"re-flatten n0 -> handle 12, n7 -> handle 8",
	} {
		if !slices.Contains(bounded.log, want) {
			t.Fatalf("scenario did not exercise %q:\n%q", want, bounded.log)
		}
	}

	// A recycled driver must start from empty counts: the shifted pids
	// make every stale count wrong.
	recycled := newReapRig(bounded.d, false)
	recycled.checkOwned(t, "after NewReusing")
	scan = newReapRig(nil, true)
	recycled.play(t, 3)
	scan.play(t, 3)
	if !slices.Equal(recycled.log, scan.log) {
		t.Fatalf("recycled driver's walk diverged from the scan\nbounded: %q\nscan:    %q", recycled.log, scan.log)
	}
}

// TestDeathReleasesProxiesInHandleOrder checks that a dying holder
// releases its proxies in an order fixed by the run: each release
// deletes the owner's pin on the node, so the release order decides
// where the holes fall in the owner's JGR table and so the slot of every
// JGR the owner takes next. A holder materializes 50 tokens of a live
// app and dies; the app then takes 50 JGRs, whose slots two identical
// runs must share.
func TestDeathReleasesProxiesInHandleOrder(t *testing.T) {
	run := func() []int {
		r := newRig(t, art.Config{})
		holder := r.k.Spawn(kernel.SpawnConfig{Name: "holder", Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
		for i := 0; i < 50; i++ {
			if _, err := r.d.Materialize(holder, r.d.NewLocalBinder(r.app, "android.os.Binder", nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.k.Kill(holder.Pid(), "test"); err != nil {
			t.Fatal(err)
		}
		slots := make([]int, 50)
		for i := range slots {
			ref, err := r.app.VM().AddGlobalRef(&art.Object{ID: art.ObjectID(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			slots[i] = ref.Index()
		}
		return slots
	}
	first, second := run(), run()
	if !slices.Equal(first, second) {
		t.Fatalf("two identical runs put the app's next JGRs in different slots:\n%v\n%v", first, second)
	}
}

// caller has the shape of the services' registration cookie, a pid and
// a package name, for the size pin below.
type caller struct {
	pid kernel.Pid
	pkg string
}

// TestHolderLinksPruned drives seeded link, unlink and owner-death steps,
// with recipients that unlink other links while a death is being reaped,
// and checks after every step that each holder keeps exactly its active
// death links, that each node's chain holds exactly its active links in
// link order with the last as its tail, and that AttributeRetainedRefs
// equals a count over every link and proxy the test made.
func TestHolderLinksPruned(t *testing.T) {
	// A registration allocates a BinderRef, which is also its proxy, and a
	// callback entry holding its death link: 40 bytes in the 48-byte size
	// class and 112 bytes, a size class of its own.
	if got := unsafe.Sizeof(BinderRef{}); got != 40 {
		t.Fatalf("BinderRef is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Callback[caller]{}); got != 112 {
		t.Fatalf("Callback[caller] is %d bytes, want 112", got)
	}
	r := newRig(t, art.Config{})
	other := r.k.Spawn(kernel.SpawnConfig{Name: "other", Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
	holders := []*kernel.Process{r.server, other}
	apps := []*kernel.Process{r.app}
	nextUid := kernel.Uid(10100)
	var (
		links  []*DeathLink
		owner  = map[*DeathLink]*kernel.Process{}
		tokens = map[*kernel.Process][]*LocalBinder{}
		refs   = map[*BinderRef]bool{} // the victim's proxies
		fired  int
	)
	rng := rand.New(rand.NewSource(7))
	check := func(step int) {
		t.Helper()
		for _, h := range holders {
			ctx := r.d.ctxs[h.Pid()]
			active := 0
			for _, dl := range links {
				if dl.active && dl.holder.proc == h {
					active++
				}
			}
			if ctx == nil {
				if active != 0 {
					t.Fatalf("step %d: %s has %d active links and no context", step, h.Name(), active)
				}
				continue
			}
			if len(ctx.links) != active {
				t.Fatalf("step %d: %s keeps %d links, %d active", step, h.Name(), len(ctx.links), active)
			}
			for i, dl := range ctx.links {
				if int(dl.idx) != i || !dl.active {
					t.Fatalf("step %d: %s links[%d] has idx %d, active %v", step, h.Name(), i, dl.idx, dl.active)
				}
			}
		}
		for _, n := range r.d.nodes {
			var want, got []*DeathLink
			for _, dl := range links {
				if dl.active && dl.node == n {
					want = append(want, dl)
				}
			}
			for dl := n.first; dl != nil && len(got) <= len(links); dl = dl.next {
				got = append(got, dl)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: handle %d's chain holds %d links, want its %d active links in link order", step, n.handle, len(got), len(want))
			}
			if len(want) > 0 && n.last != want[len(want)-1] || len(want) == 0 && n.last != nil {
				t.Fatalf("step %d: handle %d's chain tail is not its last active link", step, n.handle)
			}
		}
		want := map[kernel.Uid]int{}
		for ref := range refs {
			if n := ref.node; !ref.closed && !n.dead && n.owner.Alive() {
				want[n.owner.Uid()]++
			}
		}
		for _, dl := range links {
			if dl.active && dl.holder.proc == r.server && !dl.node.dead && owner[dl].Alive() {
				want[owner[dl].Uid()]++
			}
		}
		if got := r.d.AttributeRetainedRefs(r.server.Pid()); !maps.Equal(got, want) {
			t.Fatalf("step %d: AttributeRetainedRefs %v, count over the links made %v", step, got, want)
		}
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // a holder links to a (possibly new) token of a live app
			app := apps[rng.Intn(len(apps))]
			ts := tokens[app]
			if len(ts) == 0 || rng.Intn(3) == 0 {
				ts = append(ts, r.d.NewLocalBinder(app, "android.os.Binder", nil))
				tokens[app] = ts
			}
			h := holders[rng.Intn(len(holders))]
			ref, err := r.d.Materialize(h, ts[rng.Intn(len(ts))])
			if err != nil {
				t.Fatal(err)
			}
			if h == r.server {
				refs[ref] = true
			}
			// Some recipients unlink another link while the death that
			// fires them is being reaped.
			var victim *DeathLink
			if len(links) > 0 && rng.Intn(4) == 0 {
				victim = links[rng.Intn(len(links))]
			}
			dl, err := ref.Binder().LinkToDeath(func() {
				fired++
				if victim != nil {
					victim.Unlink()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			links = append(links, dl)
			owner[dl] = app
		case op < 8: // unlink any link made, active or not
			if len(links) > 0 {
				links[rng.Intn(len(links))].Unlink()
			}
		default: // an app dies and a new one takes its place
			i := rng.Intn(len(apps))
			if err := r.k.Kill(apps[i].Pid(), "test"); err != nil {
				t.Fatal(err)
			}
			apps[i] = r.k.Spawn(kernel.SpawnConfig{Name: fmt.Sprintf("app%d", nextUid), Uid: nextUid})
			nextUid++
		}
		check(step)
	}
	if fired == 0 || len(r.d.ctxs[r.server.Pid()].links) == 0 {
		t.Fatalf("scenario did not exercise deaths and live links: fired %d", fired)
	}
}

// TestCallbackListRemove checks what the services' oracle tests do not
// reach: removing an entry twice is a no-op, and a binder the holder
// owns itself is appended with no death link and the link error.
func TestCallbackListRemove(t *testing.T) {
	r := newRig(t, art.Config{GCTrigger: -1})
	var l CallbackList[int]
	var cbs []*Callback[int]
	for i := 0; i < 3; i++ {
		ref, err := r.d.Materialize(r.server, r.d.NewLocalBinder(r.app, "Callback", nil))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := l.Register(ref, i)
		if err != nil {
			t.Fatal(err)
		}
		cbs = append(cbs, cb)
	}
	cbs[1].Remove()
	cbs[1].Remove()
	var got []int
	for cb := l.Front(); cb != nil; cb = cb.Next() {
		got = append(got, cb.Cookie)
	}
	if !slices.Equal(got, []int{0, 2}) || l.Len() != 2 {
		t.Fatalf("after removing entry 1 twice: %v, Len %d", got, l.Len())
	}
	// Two live entries: a proxy and a death link each.
	if n := r.server.VM().GlobalRefCount(); n != 4 {
		t.Fatalf("server JGR = %d, want 4", n)
	}
	own, err := r.d.Materialize(r.server, r.d.NewLocalBinder(r.server, "Callback", nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Register(own, 3); !errors.Is(err, ErrLocalBinder) || l.Len() != 3 {
		t.Fatalf("registering a local binder: err %v, Len %d", err, l.Len())
	}
	r.k.Kill(r.app.Pid(), "test")
	if l.Len() != 1 || l.Front().Cookie != 3 || r.server.VM().GlobalRefCount() != 0 {
		t.Fatalf("after the client died: Len %d, server JGR %d", l.Len(), r.server.VM().GlobalRefCount())
	}
}
