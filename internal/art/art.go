// Package art simulates the Android Runtime's JNI reference machinery: the
// per-process indirect reference tables for local and global references,
// the hard 51,200-entry cap on JNI global references (JGR), and the runtime
// abort that a table overflow triggers.
//
// This is the substrate of the paper's attack: every zygote-forked Android
// process runs its own runtime with its own JGR table (init's native
// daemons run none), and when a victim process is made to exceed
// MaxGlobalRefs entries, its runtime aborts
// (art/runtime/java_vm_ext.cc in AOSP 6.0.1). Because most system services
// run as threads of system_server and share a single table, one vulnerable
// IPC interface can take down the whole system (paper §II-A).
package art

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/simclock"
	"repro/internal/trace"
)

// MaxGlobalRefs is the hard upper bound on JNI global references per
// runtime, matching the constant hard-coded in AOSP 6.0.1's
// art/runtime/java_vm_ext.cc (paper §I, §II-A).
const MaxGlobalRefs = 51200

// DefaultGCTrigger is how many collectable global references may pile up
// before the runtime garbage-collects on its own, approximating ART's
// heap-pressure-driven GC. Without it, unretained binder proxies would
// accumulate between explicit GC cycles forever.
const DefaultGCTrigger = 512

// DefaultMaxLocalRefs is the per-frame local reference budget that
// AddLocalRef enforces: 8,192 entries, far more than any simulated native
// method takes, so an overflow means a simulator bug rather than modelled
// behaviour.
const DefaultMaxLocalRefs = 8192

// RefKind distinguishes the JNI indirect reference kinds the paper's
// attack and defense touch: local and global.
type RefKind int

// Reference kinds. Values start at one so the zero value is invalid
// (an uninitialized RefKind is a bug, not a local reference).
const (
	KindLocal RefKind = iota + 1
	KindGlobal
)

// String returns the JNI name of the kind.
func (k RefKind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindGlobal:
		return "global"
	default:
		return fmt.Sprintf("RefKind(%d)", int(k))
	}
}

// ObjectID uniquely identifies a simulated Java object within a device.
type ObjectID uint64

// Object is a simulated Java heap object. Objects are created by the
// binder layer (binder proxies, listener records) and by services.
type Object struct {
	ID ObjectID
}

// IndirectRef is an opaque handle into one of a runtime's reference
// tables, as returned to "native code". Like ART's IndirectRef it encodes
// the table kind (top bits, so that a ref can never be deleted from the
// wrong table), a serial number and the slot index. The serial is the
// table's add count at the time of the add, modulo 2^30, so a stale
// reference to a slot that has since been reused no longer matches the
// slot's entry.
type IndirectRef uint64

const (
	refKindShift  = 62
	refIndexBits  = 32
	refIndexMask  = 1<<refIndexBits - 1
	refSerialMask = 1<<(refKindShift-refIndexBits) - 1
)

// Kind extracts the table kind encoded in the reference.
func (r IndirectRef) Kind() RefKind { return RefKind(r >> refKindShift) }

// Index returns the reference's slot index in its table: while the
// reference is live, no other live reference of the table shares it.
func (r IndirectRef) Index() int { return int(r & refIndexMask) }

func makeRef(kind RefKind, serial uint64, index int) IndirectRef {
	return IndirectRef(uint64(kind)<<refKindShift | (serial&refSerialMask)<<refIndexBits | uint64(index))
}

// RefOp is the operation recorded in a JGREvent.
type RefOp int

// Operations observable through JGR hooks.
const (
	OpAdd RefOp = iota + 1
	OpRemove
)

// String returns "add" or "remove".
func (op RefOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	default:
		return fmt.Sprintf("RefOp(%d)", int(op))
	}
}

// JGREvent describes one mutation of the global reference table. The
// defense's runtime extension (paper §V-B) consumes these events.
type JGREvent struct {
	Time  time.Duration // virtual time of the operation
	Op    RefOp
	Ref   IndirectRef
	Obj   ObjectID
	Count int // table size immediately after the operation
}

// JGRHook observes global reference table mutations.
type JGRHook func(JGREvent)

// ErrRuntimeAborted is returned by table operations after the runtime has
// aborted.
var ErrRuntimeAborted = errors.New("art: runtime has aborted")

// OverflowError reports an indirect reference table overflow; for the
// global table this is the JGRE condition itself.
type OverflowError struct {
	Process string
	Kind    RefKind
	Max     int
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("art: %s reference table overflow in %q (max=%d)", e.Kind, e.Process, e.Max)
}

// StaleRefError reports a delete of a reference that is not in the table.
type StaleRefError struct {
	Ref IndirectRef
}

func (e *StaleRefError) Error() string {
	return fmt.Sprintf("art: use of stale or foreign %s reference %#x", e.Ref.Kind(), uint64(e.Ref))
}

// slot is one entry of an indirect reference table; a zero ref marks a
// hole.
type slot struct {
	ref IndirectRef
	obj ObjectID
	// collectable marks an entry whose referent became unreachable from
	// managed code; the next GC cycle frees the entry. This models
	// references dropped by garbage collection rather than by an explicit
	// DeleteGlobalRef (sift rules 2 and 3, paper §III-C3).
	collectable bool
}

// table is a single indirect reference table, laid out the way ART's
// IndirectReferenceTable is: a slot array indexed by the reference's slot
// index, plus a list of holes that deletes leave behind. Adds fill the
// most recently freed hole before they append, so add, lookup and delete
// are O(1) array operations.
type table struct {
	kind   RefKind
	max    int
	serial uint64
	slots  []slot
	holes  []int32 // free slot indices, the next add takes the last
	// shared marks slots and holes as copy-on-write: they belong to a
	// snapshot template and are read by any number of clones. Every
	// mutation path unshares first, so a clone pays for its private copy
	// only if (and when) it actually touches the table — the
	// system_server boot table is ~1,500 entries most shards never mutate.
	shared bool

	// Rewind support for recycled device slots. base is the frozen
	// template this table was cloned or last reset from. touched lists
	// the template slots (index < len(base.slots)) written since then;
	// everything past them was appended by the trial. resetFrom restores
	// just those slots, truncates the appended ones and restores the hole
	// list, keeping the storage. overflow records that touched reached
	// the template's size, where copying every template slot is cheaper.
	base     *table
	touched  []int32
	overflow bool
}

func newTable(kind RefKind, max int) *table {
	return &table{kind: kind, max: max}
}

// len returns the number of live entries.
func (t *table) len() int { return len(t.slots) - len(t.holes) }

// lookup returns the slot index of a live ref, or -1 if ref is stale or
// belongs to another table.
func (t *table) lookup(ref IndirectRef) int {
	i := ref.Index()
	if ref.Kind() != t.kind || i >= len(t.slots) || t.slots[i].ref != ref {
		return -1
	}
	return i
}

// add stores a new entry and returns its reference. The caller enforces
// the cap.
func (t *table) add(obj ObjectID) IndirectRef {
	t.unshare()
	t.serial++
	i := len(t.slots)
	if n := len(t.holes); n > 0 {
		i = int(t.holes[n-1])
		t.holes = t.holes[:n-1]
		t.touch(i)
	}
	ref := makeRef(t.kind, t.serial, i)
	e := slot{ref: ref, obj: obj}
	if i == len(t.slots) {
		t.slots = append(t.slots, e)
	} else {
		t.slots[i] = e
	}
	return ref
}

// remove turns live slot i into a hole.
func (t *table) remove(i int) {
	t.unshare()
	t.touch(i)
	t.slots[i] = slot{}
	t.holes = append(t.holes, int32(i))
}

// empty turns t into an empty table of the given kind and cap, keeping
// the storage it owns; storage it shares belongs to a template and is
// left to it.
func (t *table) empty(kind RefKind, max int) {
	slots, holes := t.slots[:0], t.holes[:0]
	if t.shared {
		slots, holes = nil, nil
	}
	*t = table{kind: kind, max: max, slots: slots, holes: holes, touched: t.touched[:0]}
}

// share returns a copy-on-write view of t, which rewinds to t.
func (t *table) share() *table {
	return &table{kind: t.kind, max: t.max, serial: t.serial,
		slots: t.slots, holes: t.holes, shared: true, base: t}
}

// unshare gives the table private copies of COW-shared slots and holes.
func (t *table) unshare() {
	if !t.shared {
		return
	}
	t.slots = append([]slot(nil), t.slots...)
	t.holes = append([]int32(nil), t.holes...)
	t.shared = false
}

// touch records a write to slot i, which resetFrom must undo if the slot
// is one of the template's.
func (t *table) touch(i int) {
	if t.base == nil || i >= len(t.base.slots) || t.overflow {
		return
	}
	if len(t.touched) == len(t.base.slots) {
		t.overflow = true
		return
	}
	t.touched = append(t.touched, int32(i))
}

// resetFrom rewinds t to the frozen base table. A table still sharing
// some template's storage re-points at base's. An owned table rewound to
// its own base restores the touched template slots and drops the
// appended ones; any other owned table copies base's slots into the
// storage it already has.
func (t *table) resetFrom(base *table) {
	switch {
	case t.shared:
		t.slots, t.holes = base.slots, base.holes
	case t.base == base && !t.overflow:
		for _, i := range t.touched {
			t.slots[i] = base.slots[i]
		}
		t.slots = t.slots[:len(base.slots)]
		t.holes = append(t.holes[:0], base.holes...)
	default:
		t.slots = append(t.slots[:0], base.slots...)
		t.holes = append(t.holes[:0], base.holes...)
	}
	t.kind, t.max, t.serial = base.kind, base.max, base.serial
	t.base = base
	t.touched = t.touched[:0]
	t.overflow = false
}

// Config parameterizes a VM. The zero value selects the AOSP 6.0.1
// defaults for every field.
type Config struct {
	// MaxGlobalRefs overrides the global table capacity; 0 means
	// MaxGlobalRefs (51,200). Tests use small caps to exercise overflow
	// quickly.
	MaxGlobalRefs int
	// GCTrigger overrides the collectable-entry count that starts an
	// automatic GC cycle; 0 means DefaultGCTrigger, negative disables
	// automatic collection (tests that count entries exactly).
	GCTrigger int
	// OnAbort, if non-nil, is invoked exactly once when the runtime
	// aborts, with a human-readable reason. The kernel layer uses this to
	// reap the owning process (and soft-reboot if it is system_server).
	OnAbort func(reason string)
}

// VM is one process's Android runtime. Each zygote-forked process owns
// exactly one VM (paper §II-A: "each process has its own dedicated Android
// runtime along with individual runtime resource management").
//
// VM is not safe for concurrent use; the simulation core is
// single-threaded for determinism.
type VM struct {
	process string
	clock   *simclock.Clock

	globals *table
	// frames is the local reference frame stack, root frame first. The
	// frames past its length, up to its capacity, are the ones popped
	// since, each kept at its depth for the next push there: the
	// push/pop around every transaction stops allocating once the stack
	// has reached its working depth, and a rewind keeps them too.
	frames []*table
	// frameHigh is the deepest the frame stack has been since the runtime
	// was built or rewound. A push below it reuses a frame this runtime
	// popped, a pool hit; a push at it takes a frame as good as new,
	// kept across a rewind or allocated, so a rewound runtime counts the
	// pool hits a fresh one would.
	frameHigh int

	hooks       []JGRHook
	collectable int
	gcTrigger   int
	aborted     bool
	onAbort     func(reason string)

	// rec is the device's flight recorder (nil = tracing off). Unlike
	// JGR hooks — which are append-only and must stay inert through
	// defender dead-flags — the recorder slot is settable, so the device
	// layer re-points it across clones and slot recycles. recPid labels
	// the emitted spans with the owning process.
	rec    *trace.Recorder
	recPid int32

	// statistics
	totalGlobalAdds    uint64
	totalGlobalRemoves uint64
	peakGlobals        int
	gcCycles           uint64
	framePushes        uint64
	framePoolHits      uint64
}

// NewVM creates the runtime for the named process. clock must not be nil.
func NewVM(process string, clock *simclock.Clock, cfg Config) *VM {
	vm := new(VM)
	vm.Reset(process, clock, cfg)
	return vm
}

// Reset turns vm, in place, into the runtime NewVM(process, clock, cfg)
// returns: empty tables, no hooks and no recorder, zeroed statistics and
// cfg's abort hook. It keeps the storage of the global table, the local
// frames and the hook list, which is how a process spawned again at a
// pid a retired trial used reuses its predecessor's runtime. The caller
// must guarantee nothing references the runtime's old state.
func (vm *VM) Reset(process string, clock *simclock.Clock, cfg Config) {
	if clock == nil {
		panic("art: NewVM requires a clock")
	}
	maxG := cfg.MaxGlobalRefs
	if maxG == 0 {
		maxG = MaxGlobalRefs
	}
	trigger := cfg.GCTrigger
	if trigger == 0 {
		trigger = DefaultGCTrigger
	}
	g := vm.globals
	if g == nil {
		g = newTable(KindGlobal, maxG)
	} else {
		g.empty(KindGlobal, maxG)
	}
	frames, hooks := vm.rewindFrames(), vm.rewindHooks()
	*vm = VM{
		process:   process,
		clock:     clock,
		globals:   g,
		frames:    frames,
		frameHigh: 1,
		hooks:     hooks,
		gcTrigger: trigger,
		onAbort:   cfg.OnAbort,
	}
}

// rewindFrames empties every local frame the runtime has built, on the
// stack or kept past it, and returns the stack holding only the root
// frame, which it allocates for a runtime that has none.
func (vm *VM) rewindFrames() []*table {
	frames := vm.frames[:cap(vm.frames)]
	if len(frames) == 0 {
		return []*table{newTable(KindLocal, DefaultMaxLocalRefs)}
	}
	for _, fr := range frames {
		if fr != nil {
			fr.empty(KindLocal, DefaultMaxLocalRefs)
		}
	}
	return frames[:1]
}

// rewindHooks returns the hook list emptied, its storage kept and no
// longer pointing at the hooks it held.
func (vm *VM) rewindHooks() []JGRHook {
	clear(vm.hooks)
	return vm.hooks[:0]
}

// Process returns the owning process name.
func (vm *VM) Process() string { return vm.process }

// Aborted reports whether the runtime has aborted.
func (vm *VM) Aborted() bool { return vm.aborted }

// MaxGlobal returns the global table capacity.
func (vm *VM) MaxGlobal() int { return vm.globals.max }

// GlobalRefCount returns the current number of JGR entries.
func (vm *VM) GlobalRefCount() int { return vm.globals.len() }

// LocalRefCount returns the number of local references in the current frame.
func (vm *VM) LocalRefCount() int { return vm.frames[len(vm.frames)-1].len() }

// PeakGlobalRefCount returns the historical maximum JGR table size.
func (vm *VM) PeakGlobalRefCount() int { return vm.peakGlobals }

// TotalGlobalAdds returns the cumulative number of AddGlobalRef calls that
// succeeded.
func (vm *VM) TotalGlobalAdds() uint64 { return vm.totalGlobalAdds }

// TotalGlobalRemoves returns the cumulative number of removed JGR entries
// (explicit deletes plus GC collections).
func (vm *VM) TotalGlobalRemoves() uint64 { return vm.totalGlobalRemoves }

// GCCycles returns how many GC cycles have run.
func (vm *VM) GCCycles() uint64 { return vm.gcCycles }

// FramePushes returns the cumulative number of JNI local frames entered —
// one per dispatched transaction, so it doubles as this runtime's
// inbound-call count and is the "local-frame churn" series telemetry
// exposes.
func (vm *VM) FramePushes() uint64 { return vm.framePushes }

// FramePoolHits returns how many frame pushes reused a local frame this
// runtime popped since it was built or last rewound, rather than taking
// a new one.
func (vm *VM) FramePoolHits() uint64 { return vm.framePoolHits }

// JGRHookCount returns how many JGR hooks are attached.
func (vm *VM) JGRHookCount() int { return len(vm.hooks) }

// AddJGRHook registers a hook observing global-table mutations. Hooks run
// synchronously in table-operation order. This is the attachment point of
// the defense's extended runtime (paper §V-B).
func (vm *VM) AddJGRHook(h JGRHook) {
	vm.hooks = append(vm.hooks, h)
}

// SetTraceRecorder installs (or, with nil, removes) the flight recorder
// global-table mutations are mirrored into as point spans, labelled with
// the owning process's pid. The recorder inherits whatever causal
// context the binder driver set, which is how a JGR add is attributed to
// the transaction that caused it.
func (vm *VM) SetTraceRecorder(r *trace.Recorder, pid int32) {
	vm.rec = r
	vm.recPid = pid
}

func (vm *VM) emit(op RefOp, ref IndirectRef, obj ObjectID) {
	if vm.rec.Enabled() {
		vm.rec.EmitJGR(op == OpAdd, vm.clock.Now(), vm.recPid, vm.globals.len())
	}
	if len(vm.hooks) == 0 {
		return
	}
	ev := JGREvent{
		Time:  vm.clock.Now(),
		Op:    op,
		Ref:   ref,
		Obj:   obj,
		Count: vm.globals.len(),
	}
	for _, h := range vm.hooks {
		h(ev)
	}
}

// AddGlobalRef takes a JNI global reference on obj. If the table is full
// the runtime aborts — this is the JGRE condition — and the overflow error
// is returned. obj must not be nil.
func (vm *VM) AddGlobalRef(obj *Object) (IndirectRef, error) {
	if obj == nil {
		panic("art: AddGlobalRef(nil)")
	}
	if vm.aborted {
		return 0, ErrRuntimeAborted
	}
	if vm.globals.len() >= vm.globals.max {
		err := &OverflowError{Process: vm.process, Kind: KindGlobal, Max: vm.globals.max}
		vm.abort(err.Error())
		return 0, err
	}
	ref := vm.globals.add(obj.ID)
	vm.totalGlobalAdds++
	if n := vm.globals.len(); n > vm.peakGlobals {
		vm.peakGlobals = n
	}
	vm.emit(OpAdd, ref, obj.ID)
	return ref, nil
}

// DeleteGlobalRef releases a global reference. Deleting a stale reference
// returns a StaleRefError (CheckJNI would abort; we surface the error so
// the simulator's own bugs are loud but recoverable in tests).
func (vm *VM) DeleteGlobalRef(ref IndirectRef) error {
	if vm.aborted {
		return ErrRuntimeAborted
	}
	i := vm.globals.lookup(ref)
	if i < 0 {
		return &StaleRefError{Ref: ref}
	}
	obj := vm.globals.slots[i].obj
	vm.globals.remove(i)
	vm.totalGlobalRemoves++
	vm.emit(OpRemove, ref, obj)
	return nil
}

// MarkCollectable flags a global reference whose referent is no longer
// reachable from managed code, so the next GC cycle will free it. This
// models the paper's "innocent" IPC patterns (sift rules 2 and 3, §III-C3)
// where the Binder object is collected by the garbage collector after the
// IPC method ends, as opposed to vulnerable patterns where the service
// retains the object indefinitely.
func (vm *VM) MarkCollectable(ref IndirectRef) error {
	if vm.aborted {
		return ErrRuntimeAborted
	}
	i := vm.globals.lookup(ref)
	if i < 0 {
		return &StaleRefError{Ref: ref}
	}
	vm.globals.unshare()
	vm.globals.touch(i)
	vm.globals.slots[i].collectable = true
	vm.collectable++
	if vm.gcTrigger > 0 && vm.collectable >= vm.gcTrigger {
		vm.GC()
	}
	return nil
}

// GC runs one garbage collection cycle, freeing every collectable global
// reference in slot order, and returns how many entries were freed. The
// dynamic JGRE verifier triggers GC periodically (paper §III-D uses DDMS
// for this).
func (vm *VM) GC() int {
	if vm.aborted {
		return 0
	}
	vm.gcCycles++
	vm.collectable = 0
	freed := 0
	g := vm.globals
	for i := range g.slots {
		e := g.slots[i]
		if !e.collectable {
			continue
		}
		g.remove(i)
		vm.totalGlobalRemoves++
		freed++
		vm.emit(OpRemove, e.ref, e.obj)
	}
	return freed
}

// AddLocalRef takes a local reference in the current JNI frame.
func (vm *VM) AddLocalRef(obj *Object) (IndirectRef, error) {
	if obj == nil {
		panic("art: AddLocalRef(nil)")
	}
	if vm.aborted {
		return 0, ErrRuntimeAborted
	}
	fr := vm.frames[len(vm.frames)-1]
	if fr.len() >= fr.max {
		err := &OverflowError{Process: vm.process, Kind: KindLocal, Max: fr.max}
		vm.abort(err.Error())
		return 0, err
	}
	return fr.add(obj.ID), nil
}

// PushLocalFrame enters a new native method frame. Local references taken
// afterwards are freed en masse by the matching PopLocalFrame, which is
// exactly why local references cannot be exhausted across calls (paper
// §II-A: "JNI local references ... are automatically freed after the
// native method returns").
func (vm *VM) PushLocalFrame() {
	vm.framePushes++
	n := len(vm.frames)
	if n < vm.frameHigh {
		vm.framePoolHits++
	} else {
		vm.frameHigh = n + 1
	}
	if n == cap(vm.frames) {
		vm.frames = append(vm.frames, nil)
	} else {
		vm.frames = vm.frames[:n+1]
	}
	if vm.frames[n] == nil {
		vm.frames[n] = newTable(KindLocal, DefaultMaxLocalRefs)
	}
}

// PopLocalFrame leaves the current native frame, freeing all its local
// references, and returns how many were freed. Popping the root frame
// panics: it indicates an unbalanced push/pop in the simulator.
func (vm *VM) PopLocalFrame() int {
	if len(vm.frames) == 1 {
		panic("art: PopLocalFrame on root frame")
	}
	top := vm.frames[len(vm.frames)-1]
	vm.frames = vm.frames[:len(vm.frames)-1]
	n := top.len()
	top.slots, top.holes = top.slots[:0], top.holes[:0]
	return n
}

// Freeze marks the VM's global table copy-on-write shared. A snapshot
// template calls this once, single-threaded, so that later concurrent
// Clone calls only read the shared flag and never write template state.
func (vm *VM) Freeze() {
	vm.globals.shared = true
}

// Clone creates a copy of the runtime for a snapshot clone of its
// device. The global table shares its slot array with the receiver
// copy-on-write: both sides are marked shared, and whichever mutates
// first copies the slots into its own array. The clone gets a fresh root
// local frame (the template's is empty at snapshot), no hooks (the
// clone's binder layer re-installs its own), and the supplied clock and
// abort callback. Statistics carry over.
func (vm *VM) Clone(clock *simclock.Clock, onAbort func(reason string)) *VM {
	if clock == nil {
		panic("art: Clone requires a clock")
	}
	// Mark the template table shared (skipping the write when Freeze
	// already did it, so concurrent Clones of a frozen VM never race).
	if !vm.globals.shared {
		vm.globals.shared = true
	}
	nv := &VM{
		process:            vm.process,
		clock:              clock,
		globals:            vm.globals.share(),
		collectable:        vm.collectable,
		gcTrigger:          vm.gcTrigger,
		aborted:            vm.aborted,
		onAbort:            onAbort,
		totalGlobalAdds:    vm.totalGlobalAdds,
		totalGlobalRemoves: vm.totalGlobalRemoves,
		peakGlobals:        vm.peakGlobals,
		gcCycles:           vm.gcCycles,
	}
	nv.frames, nv.frameHigh = []*table{newTable(KindLocal, DefaultMaxLocalRefs)}, 1
	return nv
}

// ResetFromTemplate rewinds vm in place to the state Clone(tmpl) would
// return — a global table equal to the frozen template's, handing out the
// same refs next, and no hooks — reusing the storage of the global table,
// the local frames and the hook list. The abort hook is preserved: it was
// bound to this VM's owning process at materialization, and a recycled
// process keeps its identity. The caller must guarantee nothing
// references the VM's retired state.
func (vm *VM) ResetFromTemplate(tmpl *VM, clock *simclock.Clock) {
	if clock == nil {
		panic("art: ResetFromTemplate requires a clock")
	}
	if !tmpl.globals.shared {
		panic("art: ResetFromTemplate of an unfrozen template")
	}
	g := vm.globals
	g.resetFrom(tmpl.globals)
	frames, hooks := vm.rewindFrames(), vm.rewindHooks()
	onAbort := vm.onAbort
	*vm = VM{
		process:            tmpl.process,
		clock:              clock,
		globals:            g,
		frames:             frames,
		frameHigh:          1,
		hooks:              hooks,
		collectable:        tmpl.collectable,
		gcTrigger:          tmpl.gcTrigger,
		aborted:            tmpl.aborted,
		onAbort:            onAbort,
		totalGlobalAdds:    tmpl.totalGlobalAdds,
		totalGlobalRemoves: tmpl.totalGlobalRemoves,
		peakGlobals:        tmpl.peakGlobals,
		gcCycles:           tmpl.gcCycles,
	}
}

// abort marks the runtime dead and fires the abort callback once.
func (vm *VM) abort(reason string) {
	if vm.aborted {
		return
	}
	vm.aborted = true
	if vm.onAbort != nil {
		vm.onAbort(reason)
	}
}
