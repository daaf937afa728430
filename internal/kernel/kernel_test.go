package kernel

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/simclock"
)

func newKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	return New(simclock.New(), cfg)
}

// scan calls fn for every process in pid order, alive or dead, without
// copying one out of a clone's template: past the end of a clone's
// table it reads the template's.
func scan(k *Kernel, fn func(*Process)) {
	for i := range max(len(k.procs), len(k.base)) {
		if i < len(k.procs) {
			fn(k.procs[i])
		} else {
			fn(k.base[i])
		}
	}
}

func TestSpawnAndLookup(t *testing.T) {
	k := newKernel(t, Config{})
	p := k.Spawn(SpawnConfig{Name: "com.example.app", Uid: 10001})
	if p.Pid() == 0 {
		t.Fatal("pid not assigned")
	}
	if got := k.Process(p.Pid()); got != p {
		t.Fatal("Process(pid) did not return the spawned process")
	}
	if got := k.FindProcess("com.example.app"); got != p {
		t.Fatal("FindProcess(name) did not return the spawned process")
	}
	if !p.Alive() {
		t.Fatal("fresh process not alive")
	}
	if k.RunningCount() != 1 {
		t.Fatalf("RunningCount = %d, want 1", k.RunningCount())
	}
}

func TestSpawnRequiresName(t *testing.T) {
	k := newKernel(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn without name did not panic")
		}
	}()
	k.Spawn(SpawnConfig{})
}

// TestSpawnRejectsCallerAbortHook: the kernel owns the VM abort hook —
// it reaps the aborting process, and a snapshot clone rebuilds the hook
// against its own kernel — so a caller-set one is a programming error.
func TestSpawnRejectsCallerAbortHook(t *testing.T) {
	k := newKernel(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn with a caller-set VM.OnAbort did not panic")
		}
	}()
	k.Spawn(SpawnConfig{Name: "a", VM: art.Config{OnAbort: func(string) {}}})
}

func TestKillFiresDeathNotification(t *testing.T) {
	k := newKernel(t, Config{})
	p := k.Spawn(SpawnConfig{Name: "a", Uid: 10001})
	var notified []*Process
	p.NotifyDeath(func(dead *Process) { notified = append(notified, dead) })

	if err := k.Kill(p.Pid(), "test"); err != nil {
		t.Fatal(err)
	}
	if len(notified) != 1 || notified[0] != p {
		t.Fatalf("death notification = %v", notified)
	}
	if p.Alive() {
		t.Fatal("killed process still alive")
	}
	if p.ExitReason() != "test" {
		t.Fatalf("ExitReason = %q", p.ExitReason())
	}
	if err := k.Kill(p.Pid(), "again"); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("double kill error = %v, want ErrNoSuchProcess", err)
	}
	if k.Process(p.Pid()) != nil {
		t.Fatal("dead process still visible")
	}
}

func TestRuntimeAbortKillsProcess(t *testing.T) {
	k := newKernel(t, Config{})
	p := k.Spawn(SpawnConfig{
		Name: "victim", Uid: 10002,
		VM: art.Config{MaxGlobalRefs: 4},
	})
	for i := 0; i < 4; i++ {
		if _, err := p.VM().AddGlobalRef(&art.Object{ID: art.ObjectID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow: VM aborts, kernel reaps the process.
	p.VM().AddGlobalRef(&art.Object{ID: 99})
	if p.Alive() {
		t.Fatal("process survived runtime abort")
	}
	if p.ExitReason() == "" {
		t.Fatal("no exit reason after runtime abort")
	}
}

func TestSystemServerDeathSoftReboots(t *testing.T) {
	var rebootReason string
	k := newKernel(t, Config{OnSystemServerDeath: func(r string) { rebootReason = r }})
	ss := k.Spawn(SpawnConfig{
		Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj,
		VM: art.Config{MaxGlobalRefs: 3},
	})
	app := k.Spawn(SpawnConfig{Name: "bystander", Uid: 10005})

	// Exhaust system_server's JGR table — the canonical JGRE attack.
	for i := 0; i < 4; i++ {
		ss.VM().AddGlobalRef(&art.Object{ID: art.ObjectID(i)})
	}
	if ss.Alive() {
		t.Fatal("system_server survived JGR exhaustion")
	}
	if k.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1", k.SoftReboots())
	}
	if app.Alive() {
		t.Fatal("bystander app survived the soft reboot")
	}
	if rebootReason == "" {
		t.Fatal("OnSystemServerDeath not invoked")
	}
}

// spawnMix spawns system_server, whose runtime aborts on its fourth
// global ref, then n rounds of a native daemon, a system process and an
// app.
func spawnMix(k *Kernel, n int) {
	k.Spawn(SpawnConfig{Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj, VM: art.Config{MaxGlobalRefs: 3}})
	for i := 0; i < n; i++ {
		spawnDaemon(k)
		k.Spawn(SpawnConfig{Name: "host", Uid: SystemUid, OomScoreAdj: PersistentProcAdj})
		k.Spawn(SpawnConfig{Name: "app", Uid: FirstAppUid + Uid(i), MemoryKB: 1024})
	}
}

// spawnDaemon spawns one of init's native daemons, as the device's
// baseline fillers are.
func spawnDaemon(k *Kernel) {
	k.Spawn(SpawnConfig{Name: "daemon", Uid: RootUid, OomScoreAdj: PersistentProcAdj, MemoryKB: 1024})
}

// exhaustSystemServer overflows system_server's JGR table: its runtime
// aborts, and the kernel reaps it and soft-reboots.
func exhaustSystemServer(t *testing.T, k *Kernel) {
	t.Helper()
	reboots := k.SoftReboots()
	ss := k.FindProcess(SystemServerName)
	for ss.Alive() {
		ss.VM().AddGlobalRef(&art.Object{ID: 1})
	}
	if k.SoftReboots() != reboots+1 {
		t.Fatalf("SoftReboots = %d after exhausting system_server, want %d", k.SoftReboots(), reboots+1)
	}
}

// TestSoftRebootKillsInPidOrder: a soft reboot kills its victims in
// ascending pid order, on a fresh kernel and on a clone whose victims are
// part materialized and part still frozen. The order decides which death
// recipients fire, since one fires only while its holder is alive.
func TestSoftRebootKillsInPidOrder(t *testing.T) {
	fresh := newKernel(t, Config{})
	spawnMix(fresh, 20)
	tmpl := newKernel(t, Config{})
	spawnMix(tmpl, 20)
	tmpl.Seal()
	clone := tmpl.Clone(simclock.New(), nil)
	for pid := Pid(60); pid > 40; pid -= 3 {
		clone.Process(pid)
	}
	for name, k := range map[string]*Kernel{"fresh": fresh, "clone": clone} {
		var killed []Pid
		k.OnKill(func(p *Process, reason string) {
			if strings.HasPrefix(reason, "soft reboot: ") {
				killed = append(killed, p.Pid())
			}
		})
		exhaustSystemServer(t, k)
		if len(killed) != 60 || !slices.IsSorted(killed) {
			t.Errorf("%s: the soft reboot killed pids %v, want its 60 victims in ascending order", name, killed)
		}
	}
}

// TestNativeDaemonsHaveNoRuntime: a RootUid process is one of init's
// native daemons and has no runtime through Spawn, Seal, Clone, Kill, a
// soft reboot (whose restart spawns a daemon again) and a CloneReusing
// rewind, while system and app processes keep theirs throughout.
func TestNativeDaemonsHaveNoRuntime(t *testing.T) {
	wantRuntimes := func(stage string, k *Kernel) {
		t.Helper()
		daemons := 0
		scan(k, func(p *Process) {
			if (p.VM() == nil) != (p.Uid() == RootUid) {
				t.Fatalf("%s: pid %d (%s, uid %d) has a runtime: %v", stage, p.Pid(), p.Name(), p.Uid(), p.VM() != nil)
			}
			if p.Uid() == RootUid {
				daemons++
			}
		})
		if daemons == 0 {
			t.Fatalf("%s: no native daemon to check", stage)
		}
	}
	var fresh, clone *Kernel
	fresh = newKernel(t, Config{OnSystemServerDeath: func(string) { spawnDaemon(fresh) }})
	spawnMix(fresh, 3)
	wantRuntimes("spawn", fresh)
	tmpl := newKernel(t, Config{})
	spawnMix(tmpl, 3)
	tmpl.Seal()
	wantRuntimes("seal", tmpl)
	restart := func(string) { spawnDaemon(clone) }
	clone = tmpl.Clone(simclock.New(), restart)
	wantRuntimes("clone", clone)
	for name, k := range map[string]*Kernel{"fresh": fresh, "clone": clone} {
		if err := k.Kill(k.FindProcess("daemon").Pid(), "test"); err != nil {
			t.Fatal(err)
		}
		wantRuntimes(name+" kill", k)
		exhaustSystemServer(t, k)
		wantRuntimes(name+" soft reboot", k)
	}
	clone = tmpl.CloneReusing(clone, simclock.New(), restart)
	wantRuntimes("rewind", clone)
	clone.Processes()
	wantRuntimes("rewind materialized", clone)
}

// TestRewindParksSpawnedProcesses: a CloneReusing rewind parks each
// process the retired trial spawned with no death notification or JGR
// hook left, and the next Spawn of its pid reuses the Process and its
// runtime as a new one: the new name, uid and JGR cap, an empty table
// and an abort that reaps the new process. A pid spawned again as a
// native daemon gets no runtime.
func TestRewindParksSpawnedProcesses(t *testing.T) {
	tmpl := newKernel(t, Config{})
	spawnMix(tmpl, 1)
	tmpl.Seal()
	clone := tmpl.Clone(simclock.New(), nil)
	app := clone.Spawn(SpawnConfig{Name: "old", Uid: FirstAppUid})
	app.NotifyDeath(func(*Process) { t.Fatal("a retired trial's death notification ran") })
	app.VM().AddGlobalRef(&art.Object{ID: 1})
	app.VM().AddJGRHook(func(art.JGREvent) { t.Fatal("a retired trial's JGR hook ran") })
	vm := app.VM()
	other := clone.Spawn(SpawnConfig{Name: "other", Uid: FirstAppUid + 1})

	clone = tmpl.CloneReusing(clone, simclock.New(), nil)
	// parked returns what waits for pid past the table's length.
	parked := func(pid Pid) *Process {
		if i := int(pid) - 1; i >= len(clone.procs) && i < cap(clone.procs) {
			return clone.procs[:i+1][i]
		}
		return nil
	}
	for _, p := range []*Process{app, other} {
		if parked(p.Pid()) != p || p.DeathNotificationCount() != 0 || p.VM().JGRHookCount() != 0 {
			t.Fatalf("pid %d after the rewind: parked %v, %d death notifications, %d JGR hooks; want parked, 0, 0",
				p.Pid(), parked(p.Pid()) == p, p.DeathNotificationCount(), p.VM().JGRHookCount())
		}
	}
	if clone.Process(app.Pid()) != nil || clone.RunningCount() != tmpl.RunningCount() {
		t.Fatalf("a parked pid is running: %d processes, template %d", clone.RunningCount(), tmpl.RunningCount())
	}

	p := clone.Spawn(SpawnConfig{Name: "new", Uid: FirstAppUid + 5, VM: art.Config{MaxGlobalRefs: 2}})
	if p != app || p.VM() != vm || parked(p.Pid()) != nil {
		t.Fatalf("Spawn of a parked pid reused the Process %v and runtime %v; want both", p == app, p.VM() == vm)
	}
	if p.Name() != "new" || p.Uid() != FirstAppUid+5 || !p.Alive() || p.VM().Process() != "new" ||
		p.VM().MaxGlobal() != 2 || p.VM().GlobalRefCount() != 0 || p.VM().PeakGlobalRefCount() != 0 {
		t.Fatalf("respawned pid %d: %s uid %d alive %v, runtime %s cap %d with %d refs, peak %d; want a new process",
			p.Pid(), p.Name(), p.Uid(), p.Alive(), p.VM().Process(), p.VM().MaxGlobal(), p.VM().GlobalRefCount(), p.VM().PeakGlobalRefCount())
	}
	for i := 0; i < 3; i++ {
		p.VM().AddGlobalRef(&art.Object{ID: 1})
	}
	if p.Alive() || !strings.HasPrefix(p.ExitReason(), "runtime abort") {
		t.Fatalf("respawned process after overflowing its table: alive %v, exit %q; want reaped by its abort", p.Alive(), p.ExitReason())
	}
	if d := clone.Spawn(SpawnConfig{Name: "daemon", Uid: RootUid}); d != other || d.VM() != nil {
		t.Fatalf("a daemon spawned at a parked pid: reused %v, runtime %v; want the Process and no runtime", d == other, d.VM() != nil)
	}
}

func TestLMKEvictsCachedApps(t *testing.T) {
	// Budget fits exactly 2 default-size apps.
	k := newKernel(t, Config{AppMemoryBudgetKB: 2 * DefaultAppMemoryKB})
	clock := k.Clock()

	a := k.Spawn(SpawnConfig{Name: "a", Uid: 10001, OomScoreAdj: CachedAppMinAdj})
	clock.Advance(time.Second)
	b := k.Spawn(SpawnConfig{Name: "b", Uid: 10002, OomScoreAdj: CachedAppMinAdj})
	clock.Advance(time.Second)
	c := k.Spawn(SpawnConfig{Name: "c", Uid: 10003, OomScoreAdj: ForegroundAppAdj})

	// Spawning c exceeded the budget; the oldest cached app (a) dies.
	if a.Alive() {
		t.Fatal("LMK did not evict the oldest cached app")
	}
	if !b.Alive() || !c.Alive() {
		t.Fatal("LMK evicted the wrong process")
	}
	if a.ExitReason() != "lmk" {
		t.Fatalf("ExitReason = %q, want lmk", a.ExitReason())
	}
	if k.LMKKills() != 1 {
		t.Fatalf("LMKKills = %d, want 1", k.LMKKills())
	}
}

func TestLMKNeverKillsForegroundOrSystem(t *testing.T) {
	k := newKernel(t, Config{AppMemoryBudgetKB: DefaultAppMemoryKB})
	k.Spawn(SpawnConfig{Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj, MemoryKB: 1})
	fg1 := k.Spawn(SpawnConfig{Name: "fg1", Uid: 10001, OomScoreAdj: ForegroundAppAdj})
	fg2 := k.Spawn(SpawnConfig{Name: "fg2", Uid: 10002, OomScoreAdj: ForegroundAppAdj})
	// Over budget but nothing killable: both foreground apps survive.
	if !fg1.Alive() || !fg2.Alive() {
		t.Fatal("LMK killed a foreground app")
	}
	if k.LMKKills() != 0 {
		t.Fatalf("LMKKills = %d, want 0", k.LMKKills())
	}
}

func TestLMKPrefersHighestAdj(t *testing.T) {
	k := newKernel(t, Config{AppMemoryBudgetKB: 2 * DefaultAppMemoryKB})
	svc := k.Spawn(SpawnConfig{Name: "svc", Uid: 10001, OomScoreAdj: ServiceAdj})
	cached := k.Spawn(SpawnConfig{Name: "cached", Uid: 10002, OomScoreAdj: CachedAppMaxAdj})
	k.Spawn(SpawnConfig{Name: "fg", Uid: 10003, OomScoreAdj: ForegroundAppAdj})
	if cached.Alive() {
		t.Fatal("LMK did not pick the highest-adj victim")
	}
	if !svc.Alive() {
		t.Fatal("LMK killed a lower-adj process first")
	}
}

func TestProcessesSorted(t *testing.T) {
	k := newKernel(t, Config{})
	for i := 0; i < 5; i++ {
		k.Spawn(SpawnConfig{Name: "p", Uid: Uid(10001 + i)})
	}
	procs := k.Processes()
	if len(procs) != 5 {
		t.Fatalf("len(Processes) = %d, want 5", len(procs))
	}
	for i := 1; i < len(procs); i++ {
		if procs[i-1].Pid() >= procs[i].Pid() {
			t.Fatal("Processes not sorted by pid")
		}
	}
}

func TestOnKillObserver(t *testing.T) {
	k := newKernel(t, Config{})
	var killed []string
	k.OnKill(func(p *Process, reason string) { killed = append(killed, p.Name()+":"+reason) })
	p := k.Spawn(SpawnConfig{Name: "x", Uid: 10001})
	k.Kill(p.Pid(), "bye")
	if len(killed) != 1 || killed[0] != "x:bye" {
		t.Fatalf("killed = %v", killed)
	}
}

// fileOf returns a provider that renders whatever *text holds at read
// time.
func fileOf(text *string) func() []byte {
	return func() []byte { return []byte(*text) }
}

func TestProcFSPermissions(t *testing.T) {
	fs := NewProcFS()
	const path = "/proc/jgre_ipc_log"
	text := "rec1\n"
	if err := fs.CreateProvider(path, RootUid, false, fileOf(&text)); err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateProvider(path, RootUid, false, fileOf(&text)); !errors.Is(err, ErrFileExists) {
		t.Fatalf("duplicate create error = %v", err)
	}
	if err := fs.CreateProvider("/proc/empty", RootUid, false, nil); err == nil {
		t.Fatal("created a file with no provider")
	}
	// Kernel-only file: an app uid can neither read nor probe it.
	if _, err := fs.Read(path, 10001); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("app read error = %v, want permission denied", err)
	}
	if err := fs.CheckRead(path, 10001); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("app check error = %v, want permission denied", err)
	}
	// The system (JGRE Defender) can read it, and every read renders the
	// producer's current state.
	for _, want := range []string{"rec1\n", "rec1\nrec2\n"} {
		text = want
		data, err := fs.Read(path, SystemUid)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("read = %q, want %q", data, want)
		}
	}
}

func TestProcFSWorldReadable(t *testing.T) {
	fs := NewProcFS()
	text := "MemTotal: 2048"
	if err := fs.CreateProvider("/proc/meminfo", RootUid, true, fileOf(&text)); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Read("/proc/meminfo", 10042)
	if err != nil {
		t.Fatalf("world-readable read failed: %v", err)
	}
	if string(data) != text {
		t.Fatalf("read = %q, want %q", data, text)
	}
}

func TestProcFSMissingFile(t *testing.T) {
	fs := NewProcFS()
	if _, err := fs.Read("/proc/nope", RootUid); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read missing error = %v", err)
	}
	if err := fs.CheckRead("/proc/nope", RootUid); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("check missing error = %v", err)
	}
	if err := fs.Remove("/proc/nope", RootUid); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("remove missing error = %v", err)
	}
}

func TestProcFSRemove(t *testing.T) {
	fs := NewProcFS()
	text := "x"
	fs.CreateProvider("/proc/b", RootUid, true, fileOf(&text))
	fs.CreateProvider("/proc/a", RootUid, true, fileOf(&text))
	if err := fs.Remove("/proc/a", 10001); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner remove error = %v", err)
	}
	if err := fs.Remove("/proc/a", RootUid); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/proc/a", RootUid); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read after remove error = %v, want no such file", err)
	}
	if _, err := fs.Read("/proc/b", RootUid); err != nil {
		t.Fatalf("remove deleted the wrong file: %v", err)
	}
}

func TestIsAppUid(t *testing.T) {
	if IsAppUid(SystemUid) {
		t.Fatal("system uid classified as app")
	}
	if !IsAppUid(FirstAppUid) || !IsAppUid(10061) {
		t.Fatal("app uid not classified as app")
	}
}

// scanAppMemoryKB is the whole-table walk the maintained appMemKB counter
// replaced, kept as the oracle the counter is checked against.
func scanAppMemoryKB(k *Kernel) int {
	total := 0
	scan(k, func(p *Process) {
		if p.alive && IsAppUid(p.uid) {
			total += p.memoryKB
		}
	})
	return total
}

// lmkProc is the slice of process state the scan-driven LMK reads.
type lmkProc struct {
	pid     Pid
	uid     Uid
	adj     int
	memKB   int
	started time.Duration
	alive   bool
}

// scanLMK replays the LMK loop as it ran before the counter: re-sum alive
// app memory by a scan on every iteration and evict the victim
// lmkVictim's rule picks. It returns the victims in eviction order.
func scanLMK(procs []lmkProc, budgetKB int) []Pid {
	var victims []Pid
	for {
		total := 0
		for _, p := range procs {
			if p.alive && IsAppUid(p.uid) {
				total += p.memKB
			}
		}
		if total <= budgetKB {
			return victims
		}
		vi := -1
		for i, p := range procs {
			if !p.alive || !IsAppUid(p.uid) || p.adj <= 0 {
				continue
			}
			if vi < 0 {
				vi = i
				continue
			}
			v := procs[vi]
			if p.adj > v.adj || (p.adj == v.adj && p.started < v.started) ||
				(p.adj == v.adj && p.started == v.started && p.pid < v.pid) {
				vi = i
			}
		}
		if vi < 0 {
			return victims
		}
		procs[vi].alive = false
		victims = append(victims, procs[vi].pid)
	}
}

// choices is where the harness draws its operations from: a seeded rng,
// or a fuzzer's bytes.
type choices interface{ Intn(n int) int }

// fuzzChoices draws each choice from one of a fuzzer's bytes, scaled to
// the range asked for; every choice reads 0 once the bytes run out.
type fuzzChoices struct{ data []byte }

func (c *fuzzChoices) Intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) * n / 256
}

// modelProc is what the harness's pid model knows of one pid.
type modelProc struct {
	name            string
	spawned, killed bool
}

// lmkHarness drives a random sequence of process-lifecycle operations
// and checks, after every step, the app-memory counter against the scan,
// every Spawn's LMK victims against scanLMK, and the process table
// against a model of the pids. The model is built only from what Spawn
// returns and from OnKill events; each clone and each rewind starts
// from the template's.
type lmkHarness struct {
	t    *testing.T
	seed int64
	rng  choices
	// materialize makes every check also read the table through
	// Processes and FindProcess, which copy every alive process out of a
	// clone's template. Without it the checks copy nothing, so template
	// entries stay in the table for the operations to reach.
	materialize bool
	k           *Kernel
	// model holds pid-1's modelProc, tmplModel the template's model at
	// its seal, and rebootKills the pids the last soft reboot killed.
	model, tmplModel []modelProc
	rebootKills      []Pid
	lmk              []Pid
	step             int
	// evictions and reboots tally what the run exercised, so the test
	// cannot pass vacuously.
	evictions, reboots int
}

// newTemplate returns a kernel running system_server, driven by h.
func (h *lmkHarness) newTemplate() *Kernel {
	k := New(simclock.New(), Config{AppMemoryBudgetKB: 8 * DefaultAppMemoryKB, OnSystemServerDeath: h.restart})
	h.attach(k, nil)
	h.spawnSystemServer()
	h.check()
	return k
}

// seal seals the template h drives and keeps its model for its clones.
func (h *lmkHarness) seal(tmpl *Kernel) {
	tmpl.Seal()
	h.tmplModel = h.model
}

// clone moves h to a fresh clone of tmpl, or to a rewind of prev.
func (h *lmkHarness) clone(tmpl, prev *Kernel, fresh bool) *Kernel {
	var k *Kernel
	if fresh {
		k = tmpl.Clone(simclock.New(), h.restart)
	} else {
		k = tmpl.CloneReusing(prev, simclock.New(), h.restart)
	}
	h.attach(k, slices.Clone(h.tmplModel))
	h.check()
	return k
}

func (h *lmkHarness) attach(k *Kernel, model []modelProc) {
	h.k, h.model = k, model
	k.OnKill(func(p *Process, reason string) {
		h.entry(p.pid).killed = true
		switch {
		case reason == "lmk":
			h.lmk = append(h.lmk, p.pid)
		case strings.HasPrefix(reason, "soft reboot: "):
			h.rebootKills = append(h.rebootKills, p.pid)
		}
	})
}

// entry returns the model's entry for pid, growing the model to reach
// it: the LMK may evict a process while its Spawn runs, so its OnKill
// event can come before the Spawn returns its pid.
func (h *lmkHarness) entry(pid Pid) *modelProc {
	for len(h.model) < int(pid) {
		h.model = append(h.model, modelProc{})
	}
	return &h.model[pid-1]
}

// alive returns the alive processes in pid order, read without copying
// any out of a clone's template.
func (h *lmkHarness) alive() []lmkProc {
	var out []lmkProc
	scan(h.k, func(p *Process) {
		if p.alive {
			out = append(out, lmkProc{p.pid, p.uid, p.oomScoreAdj, p.memoryKB, p.startedAt, true})
		}
	})
	return out
}

func (h *lmkHarness) spawn(cfg SpawnConfig) {
	mem := cfg.MemoryKB
	if mem == 0 {
		mem = DefaultAppMemoryKB
	}
	next := Pid(len(h.model) + 1)
	procs := append(h.alive(), lmkProc{next, cfg.Uid, cfg.OomScoreAdj, mem, h.k.clock.Now(), true})
	want := scanLMK(procs, h.k.cfg.AppMemoryBudgetKB)
	h.lmk = nil
	p := h.k.Spawn(cfg)
	if p.Pid() != next {
		h.t.Fatalf("seed %d step %d: Spawn returned pid %d, want the next pid %d", h.seed, h.step, p.Pid(), next)
	}
	e := h.entry(p.Pid())
	e.name, e.spawned = cfg.Name, true
	if !slices.Equal(h.lmk, want) {
		h.t.Fatalf("seed %d step %d: spawning %s evicted %v, scan-driven LMK evicts %v", h.seed, h.step, cfg.Name, h.lmk, want)
	}
	h.evictions += len(want)
}

func (h *lmkHarness) spawnApp() {
	adjs := []int{PersistentProcAdj, ForegroundAppAdj, VisibleAppAdj, PerceptibleAppAdj, ServiceAdj, CachedAppMinAdj, CachedAppMaxAdj}
	mem := 0 // DefaultAppMemoryKB
	if h.rng.Intn(2) == 0 {
		mem = 1 + h.rng.Intn(80*1024)
	}
	h.spawn(SpawnConfig{Name: "app", Uid: FirstAppUid + Uid(h.rng.Intn(40)), OomScoreAdj: adjs[h.rng.Intn(len(adjs))], MemoryKB: mem})
}

func (h *lmkHarness) spawnSystemServer() {
	h.spawn(SpawnConfig{Name: SystemServerName, Uid: SystemUid, OomScoreAdj: SystemAdj,
		MemoryKB: 1 + h.rng.Intn(200*1024), VM: art.Config{MaxGlobalRefs: 3}})
}

// restart is the OnSystemServerDeath hook: like the device layer, it
// brings system_server back and respawns a few app daemons.
func (h *lmkHarness) restart(string) {
	h.reboots++
	h.spawnSystemServer()
	for i := h.rng.Intn(4); i > 0; i-- {
		h.spawnApp()
	}
}

func (h *lmkHarness) randomAlive() *Process {
	procs := h.alive()
	if len(procs) == 0 {
		return nil
	}
	return h.k.Process(procs[h.rng.Intn(len(procs))].pid)
}

func (h *lmkHarness) do() {
	h.step++
	switch op := h.rng.Intn(20); {
	case op < 7:
		h.spawnApp()
	case op < 9:
		uids := []Uid{RootUid, SystemUid}
		h.spawn(SpawnConfig{Name: "daemon", Uid: uids[h.rng.Intn(2)], OomScoreAdj: PersistentProcAdj, MemoryKB: 1 + h.rng.Intn(80*1024)})
	case op < 13:
		if p := h.randomAlive(); p != nil && p.name != SystemServerName {
			h.k.Kill(p.pid, "test")
		}
	case op < 16:
		if p := h.randomAlive(); p != nil {
			p.SetOomScoreAdj(CachedAppMaxAdj - h.rng.Intn(CachedAppMaxAdj-SystemAdj+1))
		}
	case op < 17:
		// Exhaust system_server's JGR table: the runtime aborts, Kill
		// reaps it and the soft reboot takes everything else down, in pid
		// order.
		ss := h.k.FindProcess(SystemServerName)
		if ss == nil {
			h.spawnSystemServer()
			ss = h.k.FindProcess(SystemServerName)
		}
		h.rebootKills = h.rebootKills[:0]
		for ss.Alive() {
			ss.VM().AddGlobalRef(&art.Object{ID: 1})
		}
		if !slices.IsSorted(h.rebootKills) {
			h.t.Fatalf("seed %d step %d: the soft reboot killed pids %v, want ascending order", h.seed, h.step, h.rebootKills)
		}
	default:
		h.k.clock.Advance(time.Duration(h.rng.Intn(3)) * time.Millisecond)
	}
	h.check()
}

func (h *lmkHarness) check() {
	if got, want := h.k.appMemKB, scanAppMemoryKB(h.k); got != want {
		h.t.Fatalf("seed %d step %d: app memory counter %d KB, scan %d KB", h.seed, h.step, got, want)
	}
	var want, walked []Pid
	for i, e := range h.model {
		if e.spawned && !e.killed {
			want = append(want, Pid(i+1))
		}
	}
	scan(h.k, func(p *Process) {
		if p.alive {
			walked = append(walked, p.pid)
		}
	})
	if !slices.Equal(walked, want) {
		h.t.Fatalf("seed %d step %d: the table holds alive pids %v, the model %v", h.seed, h.step, walked, want)
	}
	if h.k.RunningCount() != len(walked) {
		h.t.Fatalf("seed %d step %d: RunningCount %d, scan %d", h.seed, h.step, h.k.RunningCount(), len(walked))
	}
	if !h.materialize {
		return
	}
	procs := h.k.Processes()
	got := make([]Pid, len(procs))
	for i, p := range procs {
		if got[i] = p.Pid(); p != h.k.Process(p.Pid()) {
			h.t.Fatalf("seed %d step %d: Processes lists pid %d as a process Process does not return", h.seed, h.step, p.Pid())
		}
	}
	if !slices.Equal(got, want) {
		h.t.Fatalf("seed %d step %d: Processes lists pids %v, the model's alive pids are %v", h.seed, h.step, got, want)
	}
	for _, name := range []string{SystemServerName, "daemon"} {
		var first *Process
		for _, pid := range want {
			if h.model[pid-1].name == name {
				first = h.k.Process(pid)
				break
			}
		}
		if got := h.k.FindProcess(name); got != first {
			h.t.Fatalf("seed %d step %d: FindProcess(%q) = %v, want the model's lowest alive pid's process %v", h.seed, h.step, name, got, first)
		}
	}
}

// TestAppMemoryCounterMatchesScan runs seeded random mixes of spawns (app
// and system uids, mixed sizes), kills, oom_score_adj changes and
// system_server JGR exhaustion, first on a template kernel and then on
// fresh and recycled clones of it. Each seed runs twice: once with
// checks that copy no process out of a template, and once with checks
// that read the table through Processes and FindProcess. Neither kind of
// check draws a choice, so both runs make the same operations.
func TestAppMemoryCounterMatchesScan(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			h := &lmkHarness{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), materialize: materialize}
			tmpl := h.newTemplate()
			for i := 0; i < 200; i++ {
				h.do()
			}
			h.seal(tmpl)
			var clone *Kernel
			for round := 0; round < 6; round++ {
				clone = h.clone(tmpl, clone, round%3 == 0)
				for i := 0; i < 80; i++ {
					h.do()
				}
			}
			if h.evictions == 0 || h.reboots == 0 {
				t.Fatalf("seed %d exercised %d LMK evictions and %d soft reboots, want both > 0", seed, h.evictions, h.reboots)
			}
			t.Logf("seed %d, materializing %v: %d LMK evictions, %d soft reboots", seed, materialize, h.evictions, h.reboots)
		}
	}
}

// FuzzProcessTable drives the LMK harness from the fuzzer's bytes in
// place of its seeded rng: the first byte picks whether the checks read
// the table through Processes and FindProcess, the next how many steps
// run on the template; after the seal, each round picks a fresh clone or
// a rewind of the last and how many steps it runs, until the bytes run
// out. Every check runs after every step.
func FuzzProcessTable(f *testing.F) {
	f.Add([]byte{0, 40, 3, 7, 100, 130, 180, 205, 255, 12, 90, 0, 200, 16, 250})
	f.Add([]byte{255, 10, 0, 0, 210, 220, 215, 40, 128, 30, 255, 5, 170, 180, 190, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzChoices{data}
		h := &lmkHarness{t: t, rng: c, materialize: c.Intn(2) == 1}
		tmpl := h.newTemplate()
		for n := c.Intn(64); n > 0 && len(c.data) > 0; n-- {
			h.do()
		}
		h.seal(tmpl)
		var clone *Kernel
		for len(c.data) > 0 {
			clone = h.clone(tmpl, clone, clone == nil || c.Intn(2) == 0)
			for n := c.Intn(32); n > 0 && len(c.data) > 0; n-- {
				h.do()
			}
		}
	})
}
