// Package kernel simulates the slice of Linux/Android kernel behaviour the
// paper's attack and defense depend on: a process table with uids and
// oom_score_adj values, process death notification (the substrate of
// binder link-to-death), the low memory killer (LMK), an in-memory procfs
// with permission bits, and the soft reboot that follows a system_server
// runtime abort.
package kernel

import (
	"errors"
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

// VM returns the process's Android runtime, or nil for one of init's
// native daemons (a RootUid process), which are not forked from zygote
// and run no runtime.
func (p *Process) VM() *art.VM { return p.vm }

// OomScoreAdj returns the current LMK priority.
func (p *Process) OomScoreAdj() int { return p.oomScoreAdj }

// SetOomScoreAdj updates the LMK priority, as ActivityManager does when an
// app moves between foreground and cached states.
func (p *Process) SetOomScoreAdj(adj int) { p.oomScoreAdj = adj }

// MemoryKB returns the simulated resident set size.
func (p *Process) MemoryKB() int { return p.memoryKB }

// NotifyDeath registers fn to run when the process dies. Binder
// link-to-death and the JGR release of a dead client are built on this.
func (p *Process) NotifyDeath(fn func(*Process)) {
	p.deathFns = append(p.deathFns, fn)
}

// DeathNotificationCount returns how many death notifications are
// registered and not yet fired.
func (p *Process) DeathNotificationCount() int { return len(p.deathFns) }

// SpawnConfig parameterizes Kernel.Spawn.
type SpawnConfig struct {
	Name string
	// Uid is the owning user. A RootUid process is one of init's native
	// daemons and gets no Android runtime: the paper's JGR tables live
	// only in zygote-forked system and app processes.
	Uid         Uid
	OomScoreAdj int
	// MemoryKB is the simulated RSS; 0 means DefaultAppMemoryKB.
	MemoryKB int
	// VM optionally overrides the runtime configuration (tests use small
	// JGR caps). Its OnAbort must be nil: the kernel installs its own
	// hook, which reaps the process.
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
// The process table is one slice indexed by pid: procs[pid-1] holds
// pid's process, and every walk runs in pid order. A clone's table
// starts empty in front of its template's (base), and a pid past its end
// reads the template's process, which every clone shares and none
// writes. A process is copied out of the template only when a caller
// needs a mutable handle (Kill, Process, FindProcess, Processes); see
// materialize. RunningCount and the LMK's memory check read counters
// copied from the template and kept on every aliveness transition. A
// clone of a 400-process device thus copies the few processes a trial
// touches rather than building 400 processes and runtimes.
type Kernel struct {
	clock *simclock.Clock
	cfg   Config
	// procs is the table. On a clone an entry below its length may still
	// be the template's process (one whose kernel is not this one) until
	// materialize copies it out, and past its length, inside its
	// capacity, a recycled clone keeps the processes a retired trial
	// spawned for the next Spawn of their pid (see CloneReusing).
	procs []*Process
	// base is the sealed template's table, nil for a kernel built with
	// New. Its entries are shared with every clone and never written.
	base   []*Process
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
		clock:  clock,
		cfg:    cfg,
		procfs: NewProcFS(),
	}
}

// Seal freezes the kernel as a snapshot template: Spawn and Kill panic
// from here on, which guarantees the process table Clone shares stays
// immutable. Every process VM is frozen (its global table marked
// copy-on-write) so concurrent clones never write template state.
// Sealing is one-way.
func (k *Kernel) Seal() {
	if k.sealed {
		return
	}
	k.sealed = true
	for _, p := range k.procs {
		if p.vm != nil {
			p.vm.Freeze()
		}
	}
}

// Clone creates a kernel whose process table starts empty in front of
// this sealed kernel's (see Kernel). The clone runs on its own clock and
// fires its own OnSystemServerDeath hook; kill observers (OnKill) start
// empty and must be re-registered by the layers above, in the same order
// as at boot. Its procfs starts empty too: every file renders from a
// producer bound to one device, so each producer registers its file
// again on the clone. Cloning an unsealed kernel, or re-cloning a clone,
// panics.
func (k *Kernel) Clone(clock *simclock.Clock, onSystemServerDeath func(reason string)) *Kernel {
	return k.CloneReusing(nil, clock, onSystemServerDeath)
}

// CloneReusing is Clone with allocation recycling: prev, when non-nil,
// must be a retired clone of this same sealed template whose device is
// no longer referenced anywhere. Its process table, procfs and
// kill-observer slice are rewound and reused in place. The table keeps
// its template pids: each process the retired trial copied out is reset
// to the template's state, keeping its Process and VM storage (valid
// because the kernel pointer, and hence every closure bound to it,
// stays the same across the rewind). The processes the retired trial
// spawned are parked past the table's length, inside its capacity:
// stripped of their death notifications, JGR hooks and abort hook, they
// wait for the next Spawn of their pid, which reuses the Process, its
// runtime and its table storage and returns a process
// indistinguishable from a freshly built one. A fleet slot that churns
// through thousands of per-trial devices thus stops paying the clone
// path's table, filesystem and materialization allocations, and the
// trial's process and runtime allocations, after the first trial.
// Passing a prev that is still in use corrupts both devices.
func (k *Kernel) CloneReusing(prev *Kernel, clock *simclock.Clock, onSystemServerDeath func(reason string)) *Kernel {
	if !k.sealed {
		panic("kernel: Clone of unsealed kernel")
	}
	if k.base != nil {
		panic("kernel: Clone of a clone")
	}
	if clock == nil {
		panic("kernel: Clone requires a clock")
	}
	cfg := k.cfg
	cfg.OnSystemServerDeath = onSystemServerDeath
	nk := prev
	var procs []*Process
	var procfs *ProcFS
	var onKill []func(*Process, string)
	if prev != nil {
		if len(prev.base) != len(k.procs) {
			panic("kernel: CloneReusing prev is not a clone of this kernel")
		}
		clear(prev.onKill)
		procs, procfs, onKill = prev.procs, prev.procfs, prev.onKill[:0]
		procfs.Reset()
	} else {
		nk = &Kernel{}
		procfs = NewProcFS()
	}
	*nk = Kernel{
		clock:       clock,
		cfg:         cfg,
		procs:       procs[:min(len(procs), len(k.procs))],
		base:        k.procs,
		procfs:      procfs,
		softReboots: k.softReboots,
		lmkKills:    k.lmkKills,
		running:     k.running,
		appMemKB:    k.appMemKB,
		onKill:      onKill,
	}
	for i, p := range procs {
		switch {
		case i >= len(k.procs):
			nk.park(p)
		case p.k == nk:
			p.resetFrom(k.procs[i], nk)
		}
	}
	return nk
}

// park keeps p, a process a retired trial spawned, for the next Spawn of
// its pid, after dropping everything in it that points into that trial:
// its death notifications, and its runtime's hooks, recorder and abort
// hook, which a reset to a blank runtime on the kernel's clock drops.
func (k *Kernel) park(p *Process) {
	p.deathFns = clearFns(p.deathFns)
	if p.vm != nil {
		p.vm.Reset(p.name, k.clock, art.Config{})
	}
}

// resetFrom rewinds a process a clone copied out of its template back to
// the template's process fp in place, keeping its Process and VM
// storage. The identity-bound pieces — the kernel-reaper abort wrapper
// on the VM and the pid — are unchanged by construction: pid and the
// kernel pointer are the same before and after a kernel rewind.
func (p *Process) resetFrom(fp *Process, k *Kernel) {
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
		deathFns:    clearFns(p.deathFns),
		k:           k,
	}
	if vm != nil {
		vm.ResetFromTemplate(fp.vm, k.clock)
	}
}

// clearFns returns fns emptied, its storage kept and no longer pointing
// at the callbacks it held.
func clearFns(fns []func(*Process)) []func(*Process) {
	clear(fns)
	return fns[:0]
}

// grow extends the table with the template's entries up to pid n. Each
// entry it adds stays the template's process, read-only, until
// materialize copies it out.
func (k *Kernel) grow(n int) {
	if len(k.procs) < n {
		k.procs = append(k.procs, k.base[len(k.procs):n]...)
	}
}

// materialize returns a mutable, kernel-owned process for pid, alive or
// dead, or nil for a pid never spawned. On a clone it grows the table up
// to pid and, on first use, copies pid's process out of the template. A
// copy of a process with a runtime gets its own VM built on the
// template VM's global table (copy-on-write, see art.VM.Clone) and an
// abort hook rebuilt against this kernel.
func (k *Kernel) materialize(pid Pid) *Process {
	i := int(pid) - 1
	if i < 0 || i >= max(len(k.procs), len(k.base)) {
		return nil
	}
	k.grow(i + 1)
	fp := k.procs[i]
	if fp.k == k {
		return fp
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
	}
	if fp.vm != nil {
		p.vm = fp.vm.Clone(k.clock, func(reason string) {
			k.Kill(p.pid, "runtime abort: "+reason)
		})
	}
	k.procs[i] = p
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

// Spawn creates a new process with its own Android runtime, unless
// cfg.Uid is RootUid: init's native daemons run none. A runtime abort
// (JGR exhaustion) automatically kills the process, which in turn
// soft-reboots the device if the process is system_server. On a clone
// it first copies the template's table in, so the new pid follows the
// template's. On a recycled clone, a pid a retired trial spawned reuses
// that trial's parked Process and runtime storage; the process is
// indistinguishable from a new one.
func (k *Kernel) Spawn(cfg SpawnConfig) *Process {
	if cfg.Name == "" {
		panic("kernel: Spawn requires a process name")
	}
	if cfg.VM.OnAbort != nil {
		panic("kernel: Spawn owns the VM abort hook; SpawnConfig.VM.OnAbort must be nil")
	}
	if k.sealed {
		panic("kernel: Spawn on kernel sealed by snapshot")
	}
	if cfg.MemoryKB == 0 {
		cfg.MemoryKB = DefaultAppMemoryKB
	}
	k.grow(len(k.base))
	n := len(k.procs)
	var p *Process
	if n < cap(k.procs) {
		p = k.procs[:n+1][n] // parked by CloneReusing, or nil
	}
	if p == nil {
		p = new(Process)
	}
	vm := p.vm
	*p = Process{
		pid:         Pid(n + 1),
		uid:         cfg.Uid,
		name:        cfg.Name,
		oomScoreAdj: cfg.OomScoreAdj,
		memoryKB:    cfg.MemoryKB,
		startedAt:   k.clock.Now(),
		alive:       true,
		deathFns:    p.deathFns,
		k:           k,
	}

	if cfg.Uid != RootUid {
		vmCfg := cfg.VM
		vmCfg.OnAbort = func(reason string) {
			// Runtime abort kills the owning process (paper §II-A: "the
			// victim process's runtime will abort").
			k.Kill(p.pid, "runtime abort: "+reason)
		}
		if vm == nil {
			vm = new(art.VM)
		}
		vm.Reset(cfg.Name, k.clock, vmCfg)
		p.vm = vm
	}

	k.procs = append(k.procs, p)
	k.running++
	if IsAppUid(p.uid) {
		k.appMemKB += p.memoryKB
	}
	k.runLMK()
	return p
}

// Process returns the alive process with the given pid, or nil.
func (k *Kernel) Process(pid Pid) *Process {
	if p := k.materialize(pid); p != nil && p.alive {
		return p
	}
	return nil
}

// FindProcess returns the alive process with the given name and the
// lowest pid, or nil.
func (k *Kernel) FindProcess(name string) *Process {
	k.grow(len(k.base))
	for _, p := range k.procs {
		if p.alive && p.name == name {
			return k.materialize(p.pid)
		}
	}
	return nil
}

// Processes returns all alive processes in pid order. On a clone this
// materializes every alive process; only tests call it.
func (k *Kernel) Processes() []*Process {
	k.grow(len(k.base))
	var out []*Process
	for _, p := range k.procs {
		if p.alive {
			out = append(out, k.materialize(p.pid))
		}
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
	p := k.materialize(pid)
	if p == nil || !p.alive {
		return ErrNoSuchProcess
	}
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
	// Kill the victims in pid order: a death recipient fires only while
	// its holder is alive, so the order decides which recipients fire.
	// Each entry is read again before its kill, since an earlier victim's
	// death cascade may have killed it already; a process spawned during
	// the loop lands past n and is no victim.
	k.grow(len(k.base))
	for i, n := 0, len(k.procs); i < n; i++ {
		if p := k.procs[i]; p.alive && p.name != SystemServerName {
			k.exit(k.materialize(p.pid), killReason)
		}
	}
	if cb := k.cfg.OnSystemServerDeath; cb != nil {
		cb(reason)
	}
}

// runLMK applies the low memory killer policy: while app memory exceeds
// the budget, kill the app process with the highest oom_score_adj
// (breaking ties by oldest start time, then lowest pid), never touching
// processes with adj <= 0. This mirrors Android's LMK victim selection
// (paper §VII). Only Spawn runs it, after copying the template's table
// in, so the victim walk reads one table.
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

// lmkVictim walks the table in pid order, so of two equal candidates the
// first one found has the lower pid and stays the victim.
func (k *Kernel) lmkVictim() *Process {
	var victim *Process
	for _, p := range k.procs {
		if !p.alive || !IsAppUid(p.uid) || p.oomScoreAdj <= 0 {
			continue
		}
		if victim == nil ||
			p.oomScoreAdj > victim.oomScoreAdj ||
			(p.oomScoreAdj == victim.oomScoreAdj && p.startedAt < victim.startedAt) {
			victim = p
		}
	}
	return victim
}
