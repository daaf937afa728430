// Package kernel simulates the slice of Linux/Android kernel behaviour the
// paper's attack and defense depend on: a process table with uids and
// oom_score_adj values, process death notification (the substrate of
// binder link-to-death), the low memory killer (LMK), an in-memory procfs
// with permission bits, and the soft reboot that follows a system_server
// runtime abort.
package kernel

import (
	"errors"
	"sort"
	"time"

	"repro/internal/art"
	"repro/internal/simclock"
)

// Pid identifies a process.
type Pid int

// Uid identifies a Linux user. Android maps each app to its own uid.
type Uid int

// Well-known Android uids.
const (
	RootUid   Uid = 0
	SystemUid Uid = 1000
	// FirstAppUid is the first uid handed to an installed application
	// (AID_APP in Android). Anything at or above this value is a
	// third-party app for permission purposes.
	FirstAppUid Uid = 10000
)

// IsAppUid reports whether uid belongs to an installed application rather
// than the system.
func IsAppUid(uid Uid) bool { return uid >= FirstAppUid }

// Common oom_score_adj values (Android's ProcessList).
const (
	SystemAdj         = -1000 // never killed by LMK
	PersistentProcAdj = -800
	ForegroundAppAdj  = 0
	VisibleAppAdj     = 100
	PerceptibleAppAdj = 200
	ServiceAdj        = 500
	CachedAppMinAdj   = 900
	CachedAppMaxAdj   = 906
)

// Process is one simulated process. Create via Kernel.Spawn.
type Process struct {
	pid         Pid
	uid         Uid
	name        string
	oomScoreAdj int
	memoryKB    int
	startedAt   time.Duration
	alive       bool
	exitReason  string

	vm       *art.VM
	deathFns []func(*Process)
	k        *Kernel
	// userAbort is the caller-supplied VM abort hook from SpawnConfig,
	// kept separately from the kernel-reaper wrapper installed on the VM
	// so a snapshot clone can rebuild the wrapper against its own kernel.
	userAbort func(reason string)
}

// Pid returns the process id.
func (p *Process) Pid() Pid { return p.pid }

// Uid returns the owning uid.
func (p *Process) Uid() Uid { return p.uid }

// Name returns the process (package) name.
func (p *Process) Name() string { return p.name }

// Alive reports whether the process is running.
func (p *Process) Alive() bool { return p.alive }

// ExitReason returns why the process died, or "" while alive.
func (p *Process) ExitReason() string { return p.exitReason }

// VM returns the process's Android runtime.
func (p *Process) VM() *art.VM { return p.vm }

// OomScoreAdj returns the current LMK priority.
func (p *Process) OomScoreAdj() int { return p.oomScoreAdj }

// SetOomScoreAdj updates the LMK priority, as ActivityManager does when an
// app moves between foreground and cached states.
func (p *Process) SetOomScoreAdj(adj int) { p.oomScoreAdj = adj }

// MemoryKB returns the simulated resident set size.
func (p *Process) MemoryKB() int { return p.memoryKB }

// StartedAt returns the virtual time the process started.
func (p *Process) StartedAt() time.Duration { return p.startedAt }

// NotifyDeath registers fn to run when the process dies. Binder
// link-to-death and the JGR release of a dead client are built on this.
func (p *Process) NotifyDeath(fn func(*Process)) {
	p.deathFns = append(p.deathFns, fn)
}

// SpawnConfig parameterizes Kernel.Spawn.
type SpawnConfig struct {
	Name        string
	Uid         Uid
	OomScoreAdj int
	// MemoryKB is the simulated RSS; 0 means DefaultAppMemoryKB.
	MemoryKB int
	// VM optionally overrides the runtime configuration (tests use small
	// JGR caps). The OnAbort hook is always chained to the kernel reaper.
	VM art.Config
}

// DefaultAppMemoryKB is the simulated RSS of an app process (≈40 MB),
// sized so that the LMK budget yields the ≈39 concurrently running user
// apps observed in the paper's Fig. 4 baseline.
const DefaultAppMemoryKB = 40 * 1024

// DefaultAppMemoryBudgetKB is the memory available to user-app processes
// before the LMK starts evicting cached apps (≈1.6 GB of the Nexus 5X's
// 2 GB, the rest held by the system).
const DefaultAppMemoryBudgetKB = 1600 * 1024

// Config parameterizes a Kernel.
type Config struct {
	// AppMemoryBudgetKB bounds total app-process memory; 0 means
	// DefaultAppMemoryBudgetKB.
	AppMemoryBudgetKB int
	// OnSystemServerDeath, if non-nil, runs after a process named
	// "system_server" dies (before the soft-reboot bookkeeping
	// completes). The device layer uses it to restart services.
	OnSystemServerDeath func(reason string)
}

// SystemServerName is the process name whose death soft-reboots Android.
const SystemServerName = "system_server"

// Kernel is the simulated kernel. Create with New, or clone a sealed
// kernel with Clone.
//
// A cloned kernel shares its template's process table as an immutable
// frozen base: processes materialize into the clone's own table (procs)
// only when a caller needs a mutable handle (Kill, Process, FindProcess,
// Processes). RunningCount and the LMK's memory check read counters
// copied from the template and kept on every aliveness transition; only
// LMK victim selection walks the merged view, and only once app memory is
// over budget. A clone of a 400-process device thus costs a few map
// allocations rather than 400 process + VM constructions.
type Kernel struct {
	clock   *simclock.Clock
	cfg     Config
	nextPid Pid
	procs   map[Pid]*Process
	// frozen is the sealed template's process table (nil for a kernel
	// built with New). Entries are shared across every clone and must
	// never be mutated; a pid present in procs shadows its frozen entry.
	frozen map[Pid]*Process
	sealed bool
	procfs *ProcFS
	// running counts alive processes, maintained on every aliveness
	// transition so RunningCount is O(1) — it is a per-render telemetry
	// gauge and a post-clone sanity check, both of which would otherwise
	// scan the full process table.
	running int
	// appMemKB is the RSS of alive app-uid processes, kept on the same
	// transitions as running, so the LMK check after every Spawn is O(1)
	// instead of a walk over every process the device has ever had.
	appMemKB int

	softReboots int
	lmkKills    int
	onKill      []func(*Process, string)
}

// New creates a kernel on the given clock.
func New(clock *simclock.Clock, cfg Config) *Kernel {
	if clock == nil {
		panic("kernel: New requires a clock")
	}
	if cfg.AppMemoryBudgetKB == 0 {
		cfg.AppMemoryBudgetKB = DefaultAppMemoryBudgetKB
	}
	return &Kernel{
		clock:   clock,
		cfg:     cfg,
		nextPid: 1,
		procs:   make(map[Pid]*Process),
		procfs:  NewProcFS(),
	}
}

// Seal freezes the kernel as a snapshot template: Spawn and Kill panic
// from here on, which guarantees the process table Clone shares stays
// immutable. Every process VM is frozen (reference tables marked
// copy-on-write) so concurrent clones never write template state.
// Sealing is one-way.
func (k *Kernel) Seal() {
	if k.sealed {
		return
	}
	k.sealed = true
	for _, p := range k.procs {
		p.vm.Freeze()
	}
}

// Clone creates a kernel that shares this sealed kernel's process table
// as a copy-on-write base. The clone runs on its own clock and fires its
// own OnSystemServerDeath hook; kill observers (OnKill) start empty and
// must be re-registered by the layers above, in the same order as at
// boot. Its procfs starts empty too: every file renders from a producer
// bound to one device, so each producer registers its file again on the
// clone. Cloning an unsealed kernel, or re-cloning a clone, panics.
func (k *Kernel) Clone(clock *simclock.Clock, onSystemServerDeath func(reason string)) *Kernel {
	return k.CloneReusing(nil, clock, onSystemServerDeath)
}

// CloneReusing is Clone with allocation recycling: prev, when non-nil,
// must be a retired clone of this same sealed template whose device is
// no longer referenced anywhere. Its overlay process table, procfs and
// kill-observer slice are rewound and reused in place — materialized
// processes that shadow a frozen pid are reset to frozen state, keeping
// their Process and VM storage (valid because the kernel pointer, and
// hence every closure bound to it, stays the same across the rewind);
// processes spawned during the retired trial are dropped. A fleet slot
// that churns through thousands of per-trial devices thus stops paying
// the clone path's map, filesystem and materialization allocations after
// the first trial. Passing a prev that is still in use corrupts both
// devices.
func (k *Kernel) CloneReusing(prev *Kernel, clock *simclock.Clock, onSystemServerDeath func(reason string)) *Kernel {
	if !k.sealed {
		panic("kernel: Clone of unsealed kernel")
	}
	if k.frozen != nil {
		panic("kernel: Clone of a clone")
	}
	if clock == nil {
		panic("kernel: Clone requires a clock")
	}
	cfg := k.cfg
	cfg.OnSystemServerDeath = onSystemServerDeath
	var nk *Kernel
	var procs map[Pid]*Process
	var procfs *ProcFS
	var onKill []func(*Process, string)
	if prev != nil {
		if prev.frozen == nil {
			panic("kernel: CloneReusing prev is not a clone")
		}
		nk, procs, procfs, onKill = prev, prev.procs, prev.procfs, prev.onKill[:0]
		procfs.Reset()
	} else {
		nk = &Kernel{}
		procs = make(map[Pid]*Process)
		procfs = NewProcFS()
	}
	*nk = Kernel{
		clock:       clock,
		cfg:         cfg,
		nextPid:     k.nextPid,
		procs:       procs,
		frozen:      k.procs,
		procfs:      procfs,
		softReboots: k.softReboots,
		lmkKills:    k.lmkKills,
		running:     k.running,
		appMemKB:    k.appMemKB,
		onKill:      onKill,
	}
	for pid, p := range procs {
		fp, ok := k.procs[pid]
		if !ok {
			// Spawned during the retired trial; not part of the template.
			delete(procs, pid)
			continue
		}
		p.resetFromFrozen(fp, nk)
	}
	return nk
}

// resetFromFrozen rewinds a materialized clone process to its frozen
// template state in place, keeping its Process and VM storage. The
// identity-bound pieces — the kernel-reaper abort wrapper on the VM and
// the pid — are unchanged by construction: pid and the kernel pointer
// are the same before and after a kernel rewind.
func (p *Process) resetFromFrozen(fp *Process, k *Kernel) {
	vm := p.vm
	*p = Process{
		pid:         fp.pid,
		uid:         fp.uid,
		name:        fp.name,
		oomScoreAdj: fp.oomScoreAdj,
		memoryKB:    fp.memoryKB,
		startedAt:   fp.startedAt,
		alive:       fp.alive,
		exitReason:  fp.exitReason,
		vm:          vm,
		deathFns:    p.deathFns[:0],
		k:           k,
		userAbort:   fp.userAbort,
	}
	vm.ResetFromTemplate(fp.vm, k.clock)
}

// lookup returns the process for pid from the clone overlay or the
// frozen base, alive or dead, without materializing. The result must be
// treated as read-only unless it came from k.procs.
func (k *Kernel) lookup(pid Pid) *Process {
	if p, ok := k.procs[pid]; ok {
		return p
	}
	return k.frozen[pid] // nil-map lookup is fine for non-clones
}

// each calls fn for every process, overlay entries shadowing frozen ones.
func (k *Kernel) each(fn func(*Process)) {
	for _, p := range k.procs {
		fn(p)
	}
	for pid, p := range k.frozen {
		if _, shadowed := k.procs[pid]; !shadowed {
			fn(p)
		}
	}
}

// materialize returns a mutable, clone-owned process for pid, copying it
// out of the frozen base on first use. The copy gets its own VM built on
// the frozen VM's reference tables (copy-on-write, see art.VM.Clone) and
// an abort hook rebuilt against this kernel.
func (k *Kernel) materialize(pid Pid) *Process {
	if p, ok := k.procs[pid]; ok {
		return p
	}
	fp, ok := k.frozen[pid]
	if !ok {
		return nil
	}
	if len(fp.deathFns) > 0 {
		// Death callbacks are closures over template state; a booted
		// device has none registered, so hitting this means a snapshot
		// was taken after the template started running workloads.
		panic("kernel: cannot materialize a process with death notifications")
	}
	p := &Process{
		pid:         fp.pid,
		uid:         fp.uid,
		name:        fp.name,
		oomScoreAdj: fp.oomScoreAdj,
		memoryKB:    fp.memoryKB,
		startedAt:   fp.startedAt,
		alive:       fp.alive,
		exitReason:  fp.exitReason,
		k:           k,
		userAbort:   fp.userAbort,
	}
	p.vm = fp.vm.Clone(k.clock, func(reason string) {
		if p.userAbort != nil {
			p.userAbort(reason)
		}
		k.Kill(p.pid, "runtime abort: "+reason)
	})
	k.procs[pid] = p
	return p
}

// Clock returns the kernel's clock.
func (k *Kernel) Clock() *simclock.Clock { return k.clock }

// ProcFS returns the kernel's proc filesystem.
func (k *Kernel) ProcFS() *ProcFS { return k.procfs }

// SoftReboots returns how many times system_server death has soft-rebooted
// the device.
func (k *Kernel) SoftReboots() int { return k.softReboots }

// LMKKills returns how many processes the low memory killer has evicted.
func (k *Kernel) LMKKills() int { return k.lmkKills }

// OnKill registers an observer invoked whenever a process dies, with the
// reason string.
func (k *Kernel) OnKill(fn func(*Process, string)) {
	k.onKill = append(k.onKill, fn)
}

// Spawn creates a new process with its own Android runtime. A runtime
// abort (JGR exhaustion) automatically kills the process, which in turn
// soft-reboots the device if the process is system_server.
func (k *Kernel) Spawn(cfg SpawnConfig) *Process {
	if cfg.Name == "" {
		panic("kernel: Spawn requires a process name")
	}
	if k.sealed {
		panic("kernel: Spawn on kernel sealed by snapshot")
	}
	if cfg.MemoryKB == 0 {
		cfg.MemoryKB = DefaultAppMemoryKB
	}
	p := &Process{
		pid:         k.nextPid,
		uid:         cfg.Uid,
		name:        cfg.Name,
		oomScoreAdj: cfg.OomScoreAdj,
		memoryKB:    cfg.MemoryKB,
		startedAt:   k.clock.Now(),
		alive:       true,
		k:           k,
		userAbort:   cfg.VM.OnAbort,
	}
	k.nextPid++

	vmCfg := cfg.VM
	vmCfg.OnAbort = func(reason string) {
		if p.userAbort != nil {
			p.userAbort(reason)
		}
		// Runtime abort kills the owning process (paper §II-A: "the
		// victim process's runtime will abort").
		k.Kill(p.pid, "runtime abort: "+reason)
	}
	p.vm = art.NewVM(cfg.Name, k.clock, vmCfg)

	k.procs[p.pid] = p
	k.running++
	if IsAppUid(p.uid) {
		k.appMemKB += p.memoryKB
	}
	k.runLMK()
	return p
}

// Process returns the process with the given pid, or nil.
func (k *Kernel) Process(pid Pid) *Process {
	p := k.lookup(pid)
	if p == nil || !p.alive {
		return nil
	}
	return k.materialize(pid)
}

// FindProcess returns the first alive process with the given name, or nil.
func (k *Kernel) FindProcess(name string) *Process {
	var best *Process
	k.each(func(p *Process) {
		if p.alive && p.name == name && (best == nil || p.pid < best.pid) {
			best = p
		}
	})
	if best == nil {
		return nil
	}
	return k.materialize(best.pid)
}

// Processes returns all alive processes sorted by pid. On a clone this
// materializes the full table; it is a diagnostic path (dumpsys), not a
// hot one.
func (k *Kernel) Processes() []*Process {
	var pids []Pid
	k.each(func(p *Process) {
		if p.alive {
			pids = append(pids, p.pid)
		}
	})
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	out := make([]*Process, len(pids))
	for i, pid := range pids {
		out[i] = k.materialize(pid)
	}
	return out
}

// RunningCount returns the number of alive processes.
func (k *Kernel) RunningCount() int { return k.running }

// ErrNoSuchProcess is returned by Kill for a dead or unknown pid.
var ErrNoSuchProcess = errors.New("kernel: no such process")

// Kill terminates a process, firing its death notifications. Killing
// system_server triggers a soft reboot: every non-system process dies with
// it (their runtimes, and thus all their references, are discarded).
func (k *Kernel) Kill(pid Pid, reason string) error {
	if k.sealed {
		panic("kernel: Kill on kernel sealed by snapshot")
	}
	if p := k.lookup(pid); p == nil || !p.alive {
		return ErrNoSuchProcess
	}
	p := k.materialize(pid)
	k.exit(p, reason)
	if p.name == SystemServerName {
		k.softReboot("system_server died: " + reason)
	}
	return nil
}

// exit is the alive→dead transition shared by Kill and the soft-reboot
// victim loop: it takes p out of the running and app-memory counters,
// then fires p's death notifications and the kill observers. Death
// notifications fire in registration order; recipients may kill further
// processes (binder death cascades), which is safe because each Kill is
// idempotent per pid.
func (k *Kernel) exit(p *Process, reason string) {
	p.alive = false
	k.running--
	if IsAppUid(p.uid) {
		k.appMemKB -= p.memoryKB
	}
	p.exitReason = reason
	for _, fn := range p.deathFns {
		fn(p)
	}
	p.deathFns = nil
	for _, fn := range k.onKill {
		fn(p, reason)
	}
}

// softReboot models Android's crash recovery: when system_server dies the
// whole user space is torn down and restarted (paper §II-A: "the entire
// Android system crashes, followed by a soft reboot").
func (k *Kernel) softReboot(reason string) {
	k.softReboots++
	killReason := "soft reboot: " + reason
	// Collect victims before killing: death recipients may themselves kill
	// processes, and on a clone the kill path materializes into k.procs,
	// which must not happen while ranging over it.
	var pids []Pid
	k.each(func(p *Process) {
		if p.alive && p.name != SystemServerName {
			pids = append(pids, p.pid)
		}
	})
	for _, pid := range pids {
		p := k.materialize(pid)
		if !p.alive {
			continue // already killed by an earlier victim's death cascade
		}
		k.exit(p, killReason)
	}
	if cb := k.cfg.OnSystemServerDeath; cb != nil {
		cb(reason)
	}
}

// runLMK applies the low memory killer policy: while app memory exceeds
// the budget, kill the app process with the highest oom_score_adj
// (breaking ties by oldest start time), never touching processes with
// adj <= 0. This mirrors Android's LMK victim selection (paper §VII).
func (k *Kernel) runLMK() {
	for k.appMemKB > k.cfg.AppMemoryBudgetKB {
		victim := k.lmkVictim()
		if victim == nil {
			return // only unkillable processes left
		}
		k.lmkKills++
		k.Kill(victim.pid, "lmk")
	}
}

func (k *Kernel) lmkVictim() *Process {
	var victim *Process
	k.each(func(p *Process) {
		if !p.alive || !IsAppUid(p.uid) || p.oomScoreAdj <= 0 {
			return
		}
		if victim == nil ||
			p.oomScoreAdj > victim.oomScoreAdj ||
			(p.oomScoreAdj == victim.oomScoreAdj && p.startedAt < victim.startedAt) ||
			(p.oomScoreAdj == victim.oomScoreAdj && p.startedAt == victim.startedAt && p.pid < victim.pid) {
			victim = p
		}
	})
	return victim
}
