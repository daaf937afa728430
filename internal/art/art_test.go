package art

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

func newTestVM(t *testing.T, cfg Config) (*VM, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	return NewVM("test_proc", clock, cfg), clock
}

func obj(id uint64) *Object { return &Object{ID: ObjectID(id)} }

func TestAddDeleteGlobalRef(t *testing.T) {
	vm, _ := newTestVM(t, Config{})
	ref, err := vm.AddGlobalRef(obj(1))
	if err != nil {
		t.Fatalf("AddGlobalRef: %v", err)
	}
	if got := vm.GlobalRefCount(); got != 1 {
		t.Fatalf("GlobalRefCount = %d, want 1", got)
	}
	if ref.Kind() != KindGlobal {
		t.Fatalf("ref kind = %v, want global", ref.Kind())
	}
	if err := vm.DeleteGlobalRef(ref); err != nil {
		t.Fatalf("DeleteGlobalRef: %v", err)
	}
	if got := vm.GlobalRefCount(); got != 0 {
		t.Fatalf("GlobalRefCount = %d, want 0", got)
	}
}

func TestDefaultCapIs51200(t *testing.T) {
	vm, _ := newTestVM(t, Config{})
	if got := vm.MaxGlobal(); got != 51200 {
		t.Fatalf("MaxGlobal = %d, want 51200 (AOSP java_vm_ext.cc constant)", got)
	}
}

func TestOverflowAbortsRuntime(t *testing.T) {
	var abortReason string
	clock := simclock.New()
	vm := NewVM("system_server", clock, Config{
		MaxGlobalRefs: 8,
		OnAbort:       func(r string) { abortReason = r },
	})
	for i := 0; i < 8; i++ {
		if _, err := vm.AddGlobalRef(obj(uint64(i))); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	_, err := vm.AddGlobalRef(obj(99))
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow add error = %v, want OverflowError", err)
	}
	if oe.Kind != KindGlobal || oe.Max != 8 || oe.Process != "system_server" {
		t.Fatalf("unexpected overflow detail: %+v", oe)
	}
	if !vm.Aborted() {
		t.Fatal("runtime did not abort on JGR overflow")
	}
	if abortReason == "" {
		t.Fatal("abort callback not invoked")
	}
	// All further table operations fail.
	if _, err := vm.AddGlobalRef(obj(100)); !errors.Is(err, ErrRuntimeAborted) {
		t.Fatalf("post-abort add error = %v, want ErrRuntimeAborted", err)
	}
}

func TestAbortCallbackFiresOnce(t *testing.T) {
	calls := 0
	clock := simclock.New()
	vm := NewVM("p", clock, Config{MaxGlobalRefs: 1, OnAbort: func(string) { calls++ }})
	if _, err := vm.AddGlobalRef(obj(1)); err != nil {
		t.Fatal(err)
	}
	vm.AddGlobalRef(obj(2))
	vm.AddGlobalRef(obj(3))
	if calls != 1 {
		t.Fatalf("abort callback fired %d times, want 1", calls)
	}
}

func TestDeleteStaleRef(t *testing.T) {
	vm, _ := newTestVM(t, Config{})
	ref, _ := vm.AddGlobalRef(obj(1))
	if err := vm.DeleteGlobalRef(ref); err != nil {
		t.Fatal(err)
	}
	var se *StaleRefError
	if err := vm.DeleteGlobalRef(ref); !errors.As(err, &se) {
		t.Fatalf("double delete error = %v, want StaleRefError", err)
	}
	// Deleting a local ref through the global API is also stale.
	lref, _ := vm.AddLocalRef(obj(2))
	if err := vm.DeleteGlobalRef(lref); !errors.As(err, &se) {
		t.Fatalf("cross-kind delete error = %v, want StaleRefError", err)
	}
}

func TestGCFreesOnlyCollectable(t *testing.T) {
	vm, _ := newTestVM(t, Config{})
	retained, _ := vm.AddGlobalRef(obj(1))
	dropped1, _ := vm.AddGlobalRef(obj(2))
	dropped2, _ := vm.AddGlobalRef(obj(3))
	if err := vm.MarkCollectable(dropped1); err != nil {
		t.Fatal(err)
	}
	if err := vm.MarkCollectable(dropped2); err != nil {
		t.Fatal(err)
	}
	if freed := vm.GC(); freed != 2 {
		t.Fatalf("GC freed %d, want 2", freed)
	}
	if got := vm.GlobalRefCount(); got != 1 {
		t.Fatalf("GlobalRefCount = %d, want 1", got)
	}
	// The retained ref survives GC and is still deletable.
	if err := vm.DeleteGlobalRef(retained); err != nil {
		t.Fatalf("retained ref was collected: %v", err)
	}
	if vm.GCCycles() != 1 {
		t.Fatalf("GCCycles = %d, want 1", vm.GCCycles())
	}
}

func TestLocalFrames(t *testing.T) {
	vm, _ := newTestVM(t, Config{})
	if _, err := vm.AddLocalRef(obj(1)); err != nil {
		t.Fatal(err)
	}
	vm.PushLocalFrame()
	vm.AddLocalRef(obj(2))
	vm.AddLocalRef(obj(3))
	if got := vm.LocalRefCount(); got != 2 {
		t.Fatalf("inner LocalRefCount = %d, want 2", got)
	}
	if freed := vm.PopLocalFrame(); freed != 2 {
		t.Fatalf("PopLocalFrame freed %d, want 2", freed)
	}
	if got := vm.LocalRefCount(); got != 1 {
		t.Fatalf("outer LocalRefCount = %d, want 1", got)
	}
}

func TestPopRootFramePanics(t *testing.T) {
	vm, _ := newTestVM(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("PopLocalFrame on root frame did not panic")
		}
	}()
	vm.PopLocalFrame()
}

func TestJGRHookObservesAddRemove(t *testing.T) {
	vm, clock := newTestVM(t, Config{})
	var events []JGREvent
	vm.AddJGRHook(func(ev JGREvent) { events = append(events, ev) })

	clock.Advance(10 * time.Millisecond)
	ref, _ := vm.AddGlobalRef(obj(7))
	clock.Advance(5 * time.Millisecond)
	vm.DeleteGlobalRef(ref)

	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	add, rem := events[0], events[1]
	if add.Op != OpAdd || add.Time != 10*time.Millisecond || add.Count != 1 || add.Obj != 7 {
		t.Fatalf("add event = %+v", add)
	}
	if rem.Op != OpRemove || rem.Time != 15*time.Millisecond || rem.Count != 0 || rem.Obj != 7 {
		t.Fatalf("remove event = %+v", rem)
	}
}

func TestStatistics(t *testing.T) {
	vm, _ := newTestVM(t, Config{})
	var refs []IndirectRef
	for i := 0; i < 10; i++ {
		r, _ := vm.AddGlobalRef(obj(uint64(i)))
		refs = append(refs, r)
	}
	for _, r := range refs[:4] {
		vm.DeleteGlobalRef(r)
	}
	if got := vm.TotalGlobalAdds(); got != 10 {
		t.Errorf("TotalGlobalAdds = %d, want 10", got)
	}
	if got := vm.TotalGlobalRemoves(); got != 4 {
		t.Errorf("TotalGlobalRemoves = %d, want 4", got)
	}
	if got := vm.PeakGlobalRefCount(); got != 10 {
		t.Errorf("PeakGlobalRefCount = %d, want 10", got)
	}
	if got := vm.GlobalRefCount(); got != 6 {
		t.Errorf("GlobalRefCount = %d, want 6", got)
	}
}

// Property: for any interleaving of adds and deletes that stays within the
// cap, count == adds - removes, and the table never exceeds its cap.
func TestQuickConservation(t *testing.T) {
	f := func(ops []bool) bool {
		clock := simclock.New()
		vm := NewVM("p", clock, Config{MaxGlobalRefs: 64})
		var live []IndirectRef
		adds, removes := 0, 0
		for i, isAdd := range ops {
			if isAdd && len(live) < 64 {
				r, err := vm.AddGlobalRef(obj(uint64(i)))
				if err != nil {
					return false
				}
				live = append(live, r)
				adds++
			} else if len(live) > 0 {
				r := live[len(live)-1]
				live = live[:len(live)-1]
				if err := vm.DeleteGlobalRef(r); err != nil {
					return false
				}
				removes++
			}
			if vm.GlobalRefCount() != adds-removes {
				return false
			}
			if vm.GlobalRefCount() > 64 {
				return false
			}
		}
		return !vm.Aborted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRefKindString(t *testing.T) {
	cases := map[RefKind]string{
		KindLocal:  "local",
		KindGlobal: "global",
		RefKind(9): "RefKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func BenchmarkAddDeleteGlobalRef(b *testing.B) {
	clock := simclock.New()
	vm := NewVM("bench", clock, Config{})
	o := obj(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := vm.AddGlobalRef(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.DeleteGlobalRef(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddGlobalRefWithHook(b *testing.B) {
	clock := simclock.New()
	vm := NewVM("bench", clock, Config{})
	var sink int
	vm.AddJGRHook(func(ev JGREvent) { sink = ev.Count })
	o := obj(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := vm.AddGlobalRef(o)
		if err != nil {
			b.Fatal(err)
		}
		vm.DeleteGlobalRef(r)
	}
	_ = sink
}

// frameChurn pushes three nested frames, each taking a local ref, and
// pops them, twice: the first round builds the frames, the second reuses
// them.
func frameChurn(t *testing.T, vm *VM) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for d := 0; d < 3; d++ {
			vm.PushLocalFrame()
			if _, err := vm.AddLocalRef(obj(uint64(d + 1))); err != nil {
				t.Fatal(err)
			}
		}
		for d := 0; d < 3; d++ {
			vm.PopLocalFrame()
		}
	}
}

// TestRewindKeepsLocalFrames checks that both rewinds, ResetFromTemplate
// for a recycled clone's process and Reset for a respawned pid, keep the
// local frames a trial built, emptied, and that the rewound runtime then
// reuses them without building one, while it counts frame pushes and
// pool hits, and hands out local refs, exactly as a fresh one does.
func TestRewindKeepsLocalFrames(t *testing.T) {
	tmpl := NewVM("system_server", simclock.New(), Config{})
	if _, err := tmpl.AddGlobalRef(obj(1)); err != nil {
		t.Fatal(err)
	}
	tmpl.Freeze()
	rewinds := []struct {
		name         string
		trial, fresh *VM
		rewind       func(*VM)
	}{
		{"ResetFromTemplate", tmpl.Clone(simclock.New(), nil), tmpl.Clone(simclock.New(), nil),
			func(vm *VM) { vm.ResetFromTemplate(tmpl, simclock.New()) }},
		{"Reset", NewVM("app", simclock.New(), Config{}), NewVM("app", simclock.New(), Config{}),
			func(vm *VM) { vm.Reset("app", simclock.New(), Config{}) }},
	}
	for _, c := range rewinds {
		vm := c.trial
		frameChurn(t, vm)
		vm.PushLocalFrame() // a frame left on the stack, as by a process killed mid-call
		built := append([]*table(nil), vm.frames[:cap(vm.frames)]...)
		c.rewind(vm)
		if len(vm.frames) != 1 || vm.frameHigh != 1 {
			t.Fatalf("%s: frame stack %d deep, high %d after the rewind; want the root alone", c.name, len(vm.frames), vm.frameHigh)
		}
		for i, fr := range built {
			if vm.frames[:cap(vm.frames)][i] != fr {
				t.Fatalf("%s: frame %d not kept", c.name, i)
			}
			if fr != nil && (fr.len() != 0 || fr.serial != 0) {
				t.Fatalf("%s: kept frame %d holds %d refs at serial %d; want a new frame's 0 and 0", c.name, i, fr.len(), fr.serial)
			}
		}
		frameChurn(t, vm)
		for i, fr := range vm.frames[:cap(vm.frames)] {
			if i >= len(built) || fr != built[i] {
				t.Fatalf("%s: the rewound runtime built frame %d again", c.name, i)
			}
		}
		frameChurn(t, c.fresh)
		got := [...]uint64{vm.FramePushes(), vm.FramePoolHits()}
		want := [...]uint64{c.fresh.FramePushes(), c.fresh.FramePoolHits()}
		if got != want || want[1] == 0 {
			t.Fatalf("%s: rewound runtime pushes and pool hits %v, fresh runtime %v", c.name, got, want)
		}
		vm.PushLocalFrame()
		c.fresh.PushLocalFrame()
		r1, _ := vm.AddLocalRef(obj(9))
		r2, _ := c.fresh.AddLocalRef(obj(9))
		if r1 != r2 {
			t.Fatalf("%s: rewound runtime's local ref %#x, fresh runtime's %#x", c.name, uint64(r1), uint64(r2))
		}
	}
}

// TestResetIsNewVM checks that Reset turns a used runtime into the one
// NewVM builds: the new cap and GC trigger, zeroed statistics, no hooks,
// an empty table handing out a fresh runtime's refs, and the new abort
// hook.
func TestResetIsNewVM(t *testing.T) {
	oldCalls := 0
	vm := NewVM("old", simclock.New(), Config{MaxGlobalRefs: 4, OnAbort: func(string) { oldCalls++ }})
	vm.AddJGRHook(func(JGREvent) { oldCalls++ })
	for i := 0; i < 5; i++ {
		vm.AddGlobalRef(obj(uint64(i))) // the fifth add aborts
	}
	oldCalls = 0
	aborts := 0
	cfg := Config{MaxGlobalRefs: 3, GCTrigger: -1, OnAbort: func(string) { aborts++ }}
	vm.Reset("new", simclock.New(), cfg)
	freshCfg := cfg
	freshCfg.OnAbort = nil
	fresh := NewVM("new", simclock.New(), freshCfg)
	stats := func(v *VM) [10]any {
		return [...]any{v.Process(), v.MaxGlobal(), v.GlobalRefCount(), v.TotalGlobalAdds(), v.TotalGlobalRemoves(),
			v.PeakGlobalRefCount(), v.GCCycles(), v.Aborted(), v.JGRHookCount(), v.gcTrigger}
	}
	if got, want := stats(vm), stats(fresh); got != want {
		t.Fatalf("reset runtime %v, NewVM %v", got, want)
	}
	for i := 0; i < 4; i++ {
		r1, err1 := vm.AddGlobalRef(obj(1))
		r2, err2 := fresh.AddGlobalRef(obj(1))
		if r1 != r2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("add %d: reset runtime %#x, %v; NewVM %#x, %v", i, uint64(r1), err1, uint64(r2), err2)
		}
	}
	if aborts != 1 || !vm.Aborted() || oldCalls != 0 {
		t.Fatalf("new abort hook ran %d times, aborted %v, old hooks ran %d times; want once, true and 0", aborts, vm.Aborted(), oldCalls)
	}
}
