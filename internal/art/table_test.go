package art

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
)

// refModel is the reference tables written as plain maps: the contract
// FuzzRefTable holds every VM to.
type refModel struct {
	max, trigger int

	globals     map[IndirectRef]modelEntry
	live        []IndirectRef // globals' keys, for indexing by fuzz bytes
	dead        []IndirectRef // deleted or collected global refs
	frames      []int         // local refs per frame, root first
	collectable int           // the VM's GC-trigger counter: marks since the last GC

	adds, removes, gcCycles uint64
	peak                    int
	aborted                 bool
}

type modelEntry struct {
	obj         ObjectID
	collectable bool
}

func newRefModel(cfg Config) *refModel {
	return &refModel{
		max: cfg.MaxGlobalRefs, trigger: cfg.GCTrigger,
		globals: map[IndirectRef]modelEntry{}, frames: []int{0},
	}
}

// clone copies the model the way VM.Clone copies a VM: tables and
// statistics carry over, the local frames start over.
func (m *refModel) clone() *refModel {
	c := *m
	c.globals = make(map[IndirectRef]modelEntry, len(m.globals))
	for r, e := range m.globals {
		c.globals[r] = e
	}
	c.live = append([]IndirectRef(nil), m.live...)
	c.dead = append([]IndirectRef(nil), m.dead...)
	c.frames = []int{0}
	return &c
}

func (m *refModel) dropLive(k int) IndirectRef {
	r := m.live[k]
	m.live[k] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	delete(m.globals, r)
	m.dead = append(m.dead, r)
	m.removes++
	return r
}

// gc frees every collectable entry and returns the freed refs.
func (m *refModel) gc() map[IndirectRef]bool {
	freed := map[IndirectRef]bool{}
	if m.aborted {
		return freed
	}
	m.gcCycles++
	m.collectable = 0
	for k := 0; k < len(m.live); {
		if m.globals[m.live[k]].collectable {
			freed[m.dropLive(k)] = true
			continue
		}
		k++
	}
	return freed
}

// refHarness drives one VM and its model in lockstep, failing on the
// first divergence.
type refHarness struct {
	t      *testing.T
	vm     *VM
	clock  *simclock.Clock
	m      *refModel
	aborts *int
	events []JGREvent
	objID  ObjectID
}

func newRefHarness(t *testing.T, vm *VM, clock *simclock.Clock, m *refModel, aborts *int) *refHarness {
	h := &refHarness{t: t, vm: vm, clock: clock, m: m, aborts: aborts, objID: 1 << 20}
	vm.AddJGRHook(func(ev JGREvent) { h.events = append(h.events, ev) })
	return h
}

func (h *refHarness) nextObj() *Object {
	h.objID++
	return &Object{ID: h.objID}
}

func (h *refHarness) wantStale(what string, err error) {
	h.t.Helper()
	if h.m.aborted {
		if !errors.Is(err, ErrRuntimeAborted) {
			h.t.Fatalf("%s after abort: err %v, want ErrRuntimeAborted", what, err)
		}
		return
	}
	var se *StaleRefError
	if !errors.As(err, &se) {
		h.t.Fatalf("%s: err %v, want StaleRefError", what, err)
	}
}

func (h *refHarness) wantAborted(what string, err error) bool {
	h.t.Helper()
	if !h.m.aborted {
		return false
	}
	if !errors.Is(err, ErrRuntimeAborted) {
		h.t.Fatalf("%s after abort: err %v, want ErrRuntimeAborted", what, err)
	}
	return true
}

// wantOverflow checks an add the model says overflows kind's table.
func (h *refHarness) wantOverflow(kind RefKind, max int, ref IndirectRef, err error) {
	h.t.Helper()
	var oe *OverflowError
	if ref != 0 || !errors.As(err, &oe) || oe.Kind != kind || oe.Max != max {
		h.t.Fatalf("%s add at cap %d: ref %#x, err %v, want OverflowError", kind, max, uint64(ref), err)
	}
	h.m.aborted = true
}

func (h *refHarness) addGlobal() {
	h.t.Helper()
	o := h.nextObj()
	before := h.m.peak
	ref, err := h.vm.AddGlobalRef(o)
	switch {
	case h.wantAborted("AddGlobalRef", err):
	case len(h.m.globals) >= h.m.max:
		h.wantOverflow(KindGlobal, h.m.max, ref, err)
	case err != nil:
		h.t.Fatalf("AddGlobalRef: %v", err)
	default:
		if _, dup := h.m.globals[ref]; dup || ref.Kind() != KindGlobal {
			h.t.Fatalf("AddGlobalRef returned %#x, live or of the wrong kind", uint64(ref))
		}
		h.m.globals[ref] = modelEntry{obj: o.ID}
		h.m.live = append(h.m.live, ref)
		h.m.adds++
		h.m.peak = max(before, len(h.m.globals))
		h.wantEvents(map[IndirectRef]ObjectID{ref: o.ID}, OpAdd)
	}
}

func (h *refHarness) deleteGlobal(k int) {
	h.t.Helper()
	if len(h.m.live) == 0 {
		return
	}
	k %= len(h.m.live)
	ref := h.m.live[k]
	obj := h.m.globals[ref].obj
	err := h.vm.DeleteGlobalRef(ref)
	if h.wantAborted("DeleteGlobalRef", err) {
		return
	}
	if err != nil {
		h.t.Fatalf("DeleteGlobalRef(live %#x): %v", uint64(ref), err)
	}
	h.m.dropLive(k)
	h.wantEvents(map[IndirectRef]ObjectID{ref: obj}, OpRemove)
}

func (h *refHarness) markCollectable(k int) {
	h.t.Helper()
	if len(h.m.live) == 0 {
		return
	}
	ref := h.m.live[k%len(h.m.live)]
	err := h.vm.MarkCollectable(ref)
	if h.wantAborted("MarkCollectable", err) {
		return
	}
	if err != nil {
		h.t.Fatalf("MarkCollectable(live %#x): %v", uint64(ref), err)
	}
	e := h.m.globals[ref]
	e.collectable = true
	h.m.globals[ref] = e
	h.m.collectable++
	if h.m.trigger > 0 && h.m.collectable >= h.m.trigger {
		h.wantGC(h.m.gc())
	}
}

// wantGC checks the remove events of one GC cycle: one per freed ref, in
// any order, each reporting the table size after its own remove.
func (h *refHarness) wantGC(freed map[IndirectRef]bool) {
	h.t.Helper()
	want := map[IndirectRef]ObjectID{}
	for _, ev := range h.events {
		if freed[ev.Ref] {
			want[ev.Ref] = ev.Obj
		}
	}
	if len(want) != len(freed) {
		h.t.Fatalf("GC emitted %d events, model frees %d refs", len(h.events), len(freed))
	}
	h.wantEvents(want, OpRemove)
}

// wantEvents checks that the hook saw exactly one op event per ref in
// want, with its object, and table sizes stepping from the size before
// the operation to the model's size after it.
func (h *refHarness) wantEvents(want map[IndirectRef]ObjectID, op RefOp) {
	h.t.Helper()
	if len(h.events) != len(want) {
		h.t.Fatalf("hook saw %d events, want %d", len(h.events), len(want))
	}
	step := -1
	if op == OpAdd {
		step = 1
	}
	count := len(h.m.globals) - step*len(want)
	for _, ev := range h.events {
		count += step
		if obj, ok := want[ev.Ref]; !ok || ev.Op != op || ev.Obj != obj || ev.Count != count || ev.Time != h.clock.Now() {
			h.t.Fatalf("hook event %+v: want %v of a ref in %v at count %d, time %v", ev, op, want, count, h.clock.Now())
		}
		delete(want, ev.Ref)
	}
	h.events = h.events[:0]
}

// addLocals takes n local refs in the current frame.
func (h *refHarness) addLocals(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		ref, err := h.vm.AddLocalRef(h.nextObj())
		if h.wantAborted("AddLocalRef", err) {
			return
		}
		if err != nil || ref.Kind() != KindLocal {
			h.t.Fatalf("AddLocalRef: %#x, %v", uint64(ref), err)
		}
		h.m.frames[len(h.m.frames)-1]++
		// A local ref is stale in the global table.
		h.wantStale("DeleteGlobalRef(local)", h.vm.DeleteGlobalRef(ref))
	}
}

// check compares every count and statistic with the model.
func (h *refHarness) check(step int) {
	h.t.Helper()
	m, vm := h.m, h.vm
	if len(h.events) != 0 {
		h.t.Fatalf("step %d: %d unexpected hook events", step, len(h.events))
	}
	got := [...]any{vm.GlobalRefCount(), vm.LocalRefCount(),
		vm.TotalGlobalAdds(), vm.TotalGlobalRemoves(), vm.PeakGlobalRefCount(), vm.GCCycles(), vm.Aborted()}
	want := [...]any{len(m.globals), m.frames[len(m.frames)-1],
		m.adds, m.removes, m.peak, m.gcCycles, m.aborted}
	if got != want {
		h.t.Fatalf("step %d: globals, locals, adds, removes, peak, gc cycles, aborted = %v, model %v", step, got, want)
	}
	wantAborts := 0
	if m.aborted {
		wantAborts = 1
	}
	if *h.aborts != wantAborts {
		h.t.Fatalf("step %d: abort callback fired %d times, want %d", step, *h.aborts, wantAborts)
	}
}

// run decodes ops two bytes at a time and applies each to the VM and the
// model.
func (h *refHarness) run(ops []byte) {
	h.t.Helper()
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step]%9, int(ops[step+1])
		m, vm := h.m, h.vm
		switch op {
		case 0:
			for i := 0; i <= arg%8; i++ {
				h.addGlobal()
			}
		case 1:
			h.deleteGlobal(arg)
		case 2: // a ref that is already dead; its slot may hold a new ref
			if len(m.dead) > 0 {
				ref := m.dead[arg%len(m.dead)]
				h.wantStale("DeleteGlobalRef(dead)", vm.DeleteGlobalRef(ref))
				h.wantStale("MarkCollectable(dead)", vm.MarkCollectable(ref))
				if _, ok := resolve(vm, ref); ok {
					h.t.Fatalf("global table resolves dead ref %#x", uint64(ref))
				}
			}
		case 3:
			h.markCollectable(arg)
		case 4:
			freed := m.gc()
			if got := vm.GC(); got != len(freed) {
				h.t.Fatalf("GC freed %d, model %d", got, len(freed))
			}
			h.wantGC(freed)
		case 5:
			vm.PushLocalFrame()
			m.frames = append(m.frames, 0)
			h.addLocals(arg % 4)
		case 6: // the root frame cannot be popped; it takes locals instead
			top := len(m.frames) - 1
			if top == 0 {
				h.addLocals(arg % 4)
				break
			}
			if got := vm.PopLocalFrame(); got != m.frames[top] {
				h.t.Fatalf("PopLocalFrame freed %d, model %d", got, m.frames[top])
			}
			m.frames = m.frames[:top]
		case 7:
			h.clock.Advance(time.Duration(arg) * time.Millisecond)
			if len(m.live) > 0 {
				ref := m.live[arg%len(m.live)]
				obj, ok := resolve(vm, ref)
				if want := m.globals[ref].obj; !ok || obj != want {
					h.t.Fatalf("global table resolves %#x to %v, %v; model %v", uint64(ref), obj, ok, want)
				}
			}
		case 8: // churn: delete up to arg live refs, then add as many
			n := min(arg, len(m.live))
			for i := 0; i < n; i++ {
				h.deleteGlobal(arg + i)
			}
			for i := 0; i < n; i++ {
				h.addGlobal()
			}
		}
		h.check(step)
	}
}

// resolve returns the object a global ref's slot holds, or false if the
// global table does not resolve ref.
func resolve(vm *VM, ref IndirectRef) (ObjectID, bool) {
	i := vm.globals.lookup(ref)
	if i < 0 {
		return 0, false
	}
	return vm.globals.slots[i].obj, true
}

// refTemplate builds the frozen template FuzzRefTable clones: a few
// hundred global refs with holes and some entries marked collectable. It
// returns the template and its model.
func refTemplate(t *testing.T, cfg Config) (*VM, *refModel) {
	clock := simclock.New()
	aborts := 0
	cfg.OnAbort = func(string) { aborts++ }
	vm := NewVM("system_server", clock, cfg)
	h := newRefHarness(t, vm, clock, newRefModel(cfg), &aborts)
	for i := 0; i < 288; i++ {
		clock.Advance(time.Millisecond)
		h.addGlobal()
	}
	for k := 0; k < len(h.m.live); k += 4 {
		h.deleteGlobal(k)
	}
	for k := 0; k < 5; k++ {
		h.markCollectable(7 * k)
	}
	h.check(-1)
	vm.Freeze()
	return vm, h.m
}

// wantRewound checks that a VM rewound to the template resolves exactly
// the template's live refs, each to the template's object: a ref the
// trial took or deleted is stale unless the template holds it.
func wantRewound(t *testing.T, vm *VM, trial, tmpl *refModel) {
	t.Helper()
	for _, refs := range [][]IndirectRef{trial.live, trial.dead} {
		for _, ref := range refs {
			want, live := tmpl.globals[ref]
			if obj, ok := resolve(vm, ref); ok != live || obj != want.obj {
				t.Fatalf("rewound VM resolves %#x to %v, %v; template %v, %v", uint64(ref), obj, ok, want.obj, live)
			}
		}
	}
}

// sameAsFreshClone checks that vm, rewound to tmpl, is indistinguishable
// from a fresh clone of tmpl: the same counts and statistics, the same
// number of collectable entries for a GC to free, and the same refs from
// the next 64 global adds.
func sameAsFreshClone(t *testing.T, vm, tmpl *VM) {
	t.Helper()
	fresh := tmpl.Clone(simclock.New(), nil)
	stats := func(v *VM) [8]any {
		return [...]any{v.GlobalRefCount(), v.LocalRefCount(), v.TotalGlobalAdds(),
			v.TotalGlobalRemoves(), v.PeakGlobalRefCount(), v.GCCycles(), v.Aborted(), v.MaxGlobal()}
	}
	if got, want := stats(vm), stats(fresh); got != want {
		t.Fatalf("rewound VM counts %v, fresh clone %v", got, want)
	}
	if got, want := vm.GC(), fresh.GC(); got != want {
		t.Fatalf("rewound VM GC freed %d, fresh clone %d", got, want)
	}
	o := &Object{ID: 1}
	for i := 0; i < 64; i++ {
		r1, err1 := vm.AddGlobalRef(o)
		r2, err2 := fresh.AddGlobalRef(o)
		if r1 != r2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("add %d after rewind: %#x, %v; fresh clone %#x, %v", i, uint64(r1), err1, uint64(r2), err2)
		}
	}
}

// FuzzRefTable holds the reference tables to a map model: every op's
// result, hook events, counts and statistics; StaleRefError for every
// dead ref, even once its slot is reused; OverflowError and exactly one
// abort at the cap. It runs the ops on a fresh VM and on a clone of a
// frozen template with holes, checks that ResetFromTemplate leaves either
// VM resolving exactly the template's refs and indistinguishable from a
// fresh clone, and replays the ops on the rewound clone against the
// template's model.
func FuzzRefTable(f *testing.F) {
	f.Add([]byte{3, 9, 0, 0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 0, 4, 0, 2, 1, 7, 3})
	f.Add([]byte{60, 5, 8, 200, 8, 255, 3, 1, 3, 2, 3, 3, 4, 0, 2, 7})
	f.Add([]byte{0, 0, 5, 3, 5, 2, 6, 0, 0, 0, 6, 0, 6, 0, 5, 1})
	f.Add([]byte{0, 1, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7,
		1, 0, 2, 0, 3, 0, 4, 0, 5, 3, 6, 0, 7, 1, 8, 3})
	f.Add([]byte{2, 40, 8, 90, 8, 90, 8, 90, 8, 90, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 3, 5, 3, 9, 7, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		// The template peaks at 288 global refs and keeps 216, so the cap
		// is a few dozen adds away; the GC trigger is off or a little
		// above the template's five marks.
		trigger := -1
		if in[1]%4 != 0 {
			trigger = 6 + int(in[1]%16)
		}
		cfg := Config{MaxGlobalRefs: 288 + int(in[0]%32), GCTrigger: trigger}
		ops := in[2:]
		tmpl, tm := refTemplate(t, cfg)

		// A fresh VM with a small cap, then rewound to the template.
		freshCfg := cfg
		freshCfg.MaxGlobalRefs = 1 + int(in[0]%64)
		aborts := 0
		freshCfg.OnAbort = func(string) { aborts++ }
		clock := simclock.New()
		vm := NewVM("system_server", clock, freshCfg)
		h := newRefHarness(t, vm, clock, newRefModel(freshCfg), &aborts)
		h.run(ops)
		vm.ResetFromTemplate(tmpl, simclock.New())
		wantRewound(t, vm, h.m, tm)
		sameAsFreshClone(t, vm, tmpl)

		// A clone of the template, then rewound and replayed twice.
		aborts = 0
		clock = simclock.New()
		clone := tmpl.Clone(clock, func(string) { aborts++ })
		h = newRefHarness(t, clone, clock, tm.clone(), &aborts)
		h.run(ops)
		for round := 0; round < 2; round++ {
			clock = simclock.New()
			clone.ResetFromTemplate(tmpl, clock)
			wantRewound(t, clone, h.m, tm)
			sameAsFreshClone(t, clone, tmpl)
			clone.ResetFromTemplate(tmpl, clock)
			aborts = 0
			h = newRefHarness(t, clone, clock, tm.clone(), &aborts)
			h.run(ops)
		}
	})
}

// BenchmarkJGRTableAttack is the table work of one attack trial on a
// recycled device slot: a clone of a frozen system_server table holding
// 1,500 refs, with the defender's JGR hook attached, takes 12,000 global
// refs, deletes every other one and is rewound to the template.
func BenchmarkJGRTableAttack(b *testing.B) {
	tmpl := NewVM("system_server", simclock.New(), Config{})
	for i := 0; i < 1500; i++ {
		if _, err := tmpl.AddGlobalRef(&Object{ID: ObjectID(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	tmpl.Freeze()
	clock := simclock.New()
	vm := tmpl.Clone(clock, nil)
	var seen int
	hook := func(ev JGREvent) { seen = ev.Count }
	o := &Object{ID: 1 << 20}
	refs := make([]IndirectRef, 12000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The rewind drops hooks; a recycled device's binder layer
		// attaches its own again.
		vm.AddJGRHook(hook)
		for j := range refs {
			r, err := vm.AddGlobalRef(o)
			if err != nil {
				b.Fatal(err)
			}
			refs[j] = r
		}
		for j := 0; j < len(refs); j += 2 {
			if err := vm.DeleteGlobalRef(refs[j]); err != nil {
				b.Fatal(err)
			}
		}
		vm.ResetFromTemplate(tmpl, clock)
	}
	if seen == 0 {
		b.Fatal("hook never ran")
	}
}
