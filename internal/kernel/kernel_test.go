package kernel

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/art"
	"repro/internal/simclock"
)

func newKernel(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	return New(simclock.New(), cfg)
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
	k.each(func(p *Process) {
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

// lmkHarness drives a seeded random sequence of process-lifecycle
// operations and checks the app-memory counter against the scan after
// every step, and every Spawn's LMK victims against scanLMK.
type lmkHarness struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	k    *Kernel
	lmk  []Pid
	step int
	// evictions and reboots tally what the run exercised, so the test
	// cannot pass vacuously.
	evictions, reboots int
}

func (h *lmkHarness) attach(k *Kernel) {
	h.k = k
	k.OnKill(func(p *Process, reason string) {
		if reason == "lmk" {
			h.lmk = append(h.lmk, p.pid)
		}
	})
}

func (h *lmkHarness) alive() []lmkProc {
	var out []lmkProc
	h.k.each(func(p *Process) {
		if p.alive {
			out = append(out, lmkProc{p.pid, p.uid, p.oomScoreAdj, p.memoryKB, p.startedAt, true})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	return out
}

func (h *lmkHarness) spawn(cfg SpawnConfig) {
	mem := cfg.MemoryKB
	if mem == 0 {
		mem = DefaultAppMemoryKB
	}
	procs := append(h.alive(), lmkProc{h.k.nextPid, cfg.Uid, cfg.OomScoreAdj, mem, h.k.clock.Now(), true})
	want := scanLMK(procs, h.k.cfg.AppMemoryBudgetKB)
	h.lmk = nil
	h.k.Spawn(cfg)
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
		// reaps it and the soft reboot takes everything else down.
		ss := h.k.FindProcess(SystemServerName)
		if ss == nil {
			h.spawnSystemServer()
			ss = h.k.FindProcess(SystemServerName)
		}
		for ss.Alive() {
			ss.VM().AddGlobalRef(&art.Object{ID: art.ObjectID(h.rng.Int63())})
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
	running := 0
	h.k.each(func(p *Process) {
		if p.alive {
			running++
		}
	})
	if h.k.RunningCount() != running {
		h.t.Fatalf("seed %d step %d: RunningCount %d, scan %d", h.seed, h.step, h.k.RunningCount(), running)
	}
}

// TestAppMemoryCounterMatchesScan runs seeded random mixes of spawns (app
// and system uids, mixed sizes), kills, oom_score_adj changes and
// system_server JGR exhaustion, first on a template kernel and then on
// fresh and recycled clones of it.
func TestAppMemoryCounterMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h := &lmkHarness{t: t, seed: seed, rng: rand.New(rand.NewSource(seed))}
		tmpl := New(simclock.New(), Config{AppMemoryBudgetKB: 8 * DefaultAppMemoryKB, OnSystemServerDeath: h.restart})
		h.attach(tmpl)
		h.spawnSystemServer()
		for i := 0; i < 200; i++ {
			h.do()
		}
		tmpl.Seal()
		var clone *Kernel
		for round := 0; round < 6; round++ {
			if round%3 == 0 {
				clone = tmpl.Clone(simclock.New(), h.restart)
			} else {
				clone = tmpl.CloneReusing(clone, simclock.New(), h.restart)
			}
			h.attach(clone)
			h.check()
			for i := 0; i < 80; i++ {
				h.do()
			}
		}
		if h.evictions == 0 || h.reboots == 0 {
			t.Fatalf("seed %d exercised %d LMK evictions and %d soft reboots, want both > 0", seed, h.evictions, h.reboots)
		}
		t.Logf("seed %d: %d LMK evictions, %d soft reboots", seed, h.evictions, h.reboots)
	}
}
