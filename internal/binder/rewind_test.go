package binder

import (
	"reflect"
	"testing"

	"repro/internal/art"
	"repro/internal/kernel"
	"repro/internal/simclock"
)

// registerTokens has the rig's app send n fresh tokens to its server,
// which keeps a proxy and a death link for each, the registration shape
// of the attack.
func registerTokens(t *testing.T, r *rig, n int) []*BinderRef {
	t.Helper()
	refs := make([]*BinderRef, n)
	for i := range refs {
		ref, err := r.d.Materialize(r.server, r.d.NewLocalBinder(r.app, "android.os.Binder", nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Binder().LinkToDeath(func() {}); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	return refs
}

// checkSlab fails if a slab entry at or past the cursor is not zero.
func checkSlab[T any](t *testing.T, when, name string, s *slab[T]) {
	t.Helper()
	for b, blk := range s.blocks {
		for i := range blk {
			if b*slabBlock+i >= s.n && !reflect.ValueOf(&blk[i]).Elem().IsZero() {
				t.Fatalf("%s: %s entry %d, past the cursor at %d, still holds %+v", when, name, b*slabBlock+i, s.n, blk[i])
			}
		}
	}
}

// refCount counts the refs a refIndex holds.
func refCount(x *refIndex) int {
	n := 0
	for _, pg := range x.pages {
		for _, br := range pg {
			if br != nil {
				n++
			}
		}
	}
	return n
}

// checkNoRetired fails if the driver's node index or slabs hold a
// pointer past what the current trial used.
func checkNoRetired(t *testing.T, when string, d *Driver) {
	t.Helper()
	for i, n := range d.nodes[len(d.nodes):cap(d.nodes)] {
		if n != nil {
			t.Fatalf("%s: nodes[%d], past the length %d, still points at handle %d", when, len(d.nodes)+i, len(d.nodes), n.handle)
		}
	}
	checkSlab(t, when, "node slab", &d.nodeSlab)
	checkSlab(t, when, "LocalBinder slab", &d.lbSlab)
}

// TestRewindDropsRetiredPointers checks what NewReusing keeps of a
// retired driver: every slab block and each pid's context, and no
// pointer into the retired trial. The first trial mints three slab
// blocks of nodes and LocalBinders and fills the server's context; right
// after the rewind no node index entry, slab entry or context may point
// at it, and a second, smaller trial on a new kernel reuses that storage
// and leaves nothing past what it used.
func TestRewindDropsRetiredPointers(t *testing.T) {
	r := newRig(t, art.Config{})
	registerTokens(t, r, 300)
	blocks := len(r.d.nodeSlab.blocks)
	firstNodes, firstLBs := &r.d.nodeSlab.blocks[0][0], &r.d.lbSlab.blocks[0][0]
	ctx := r.d.ctxs[r.server.Pid()]
	if blocks < 3 || refCount(&ctx.proxies) != 300 || len(ctx.links) != 300 {
		t.Fatalf("trial made %d node blocks, %d proxies and %d links; want 3+, 300 and 300", blocks, refCount(&ctx.proxies), len(ctx.links))
	}

	k := kernel.New(simclock.New(), kernel.Config{})
	d := NewReusing(r.d, k, Config{})
	if d.NodeCount() != 0 || d.nodeSlab.n != 0 || d.lbSlab.n != 0 {
		t.Fatalf("rewound driver holds %d nodes, slab cursors %d and %d; want 0", d.NodeCount(), d.nodeSlab.n, d.lbSlab.n)
	}
	checkNoRetired(t, "after NewReusing", d)
	if len(d.nodeSlab.blocks) != blocks || &d.nodeSlab.blocks[0][0] != firstNodes || &d.lbSlab.blocks[0][0] != firstLBs {
		t.Fatalf("rewind kept %d of %d node blocks, or not the first blocks", len(d.nodeSlab.blocks), blocks)
	}
	for pid, c := range d.ctxs {
		if c.proc != nil || refCount(&c.proxies) != 0 || len(c.links) != 0 {
			t.Fatalf("pid %d's context after NewReusing: proc %v, %d proxies, %d links; want empty",
				pid, c.proc, refCount(&c.proxies), len(c.links))
		}
		if refCount(&c.byJGR) != 0 {
			t.Fatalf("pid %d's JGR index still points at a retired proxy", pid)
		}
		for _, dl := range c.links[:cap(c.links)] {
			if dl != nil {
				t.Fatalf("pid %d's link slice still points at a retired death link", pid)
			}
		}
	}

	// The next trial, on the rewound driver: the same pids, new
	// processes, a tenth of the registrations.
	r2 := &rig{clock: k.Clock(), k: k, d: d, sm: NewServiceManager(d)}
	r2.server = k.Spawn(kernel.SpawnConfig{Name: kernel.SystemServerName, Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj})
	r2.app = k.Spawn(kernel.SpawnConfig{Name: "com.evil.app", Uid: 10061})
	refs := registerTokens(t, r2, 30)
	checkNoRetired(t, "after a smaller second trial", d)
	if d.ctxs[r2.server.Pid()] != ctx || ctx.proc != r2.server || refCount(&ctx.proxies) != 30 {
		t.Fatalf("second trial's server context: reused %v, proc %v, %d proxies; want the pid's context, the new server, 30",
			d.ctxs[r2.server.Pid()] == ctx, ctx.proc == r2.server, refCount(&ctx.proxies))
	}
	// The reopened context's JGR hook is on the new server's runtime: a
	// released proxy leaves the cache.
	refs[0].Release()
	if refCount(&ctx.proxies) != 29 || r2.server.VM().JGRHookCount() != 1 {
		t.Fatalf("after a release: %d proxies, %d hooks on the new server; want 29 and 1", refCount(&ctx.proxies), r2.server.VM().JGRHookCount())
	}
}
