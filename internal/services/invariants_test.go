package services

import (
	"math/rand"
	"testing"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
	"repro/internal/permissions"
	"repro/internal/simclock"
)

// TestServiceJGRAccountingInvariant drives a randomized sequence of
// register / unregister / client-death operations against a service and
// checks the central bookkeeping invariant after every step: the victim's
// JGR table holds exactly
//
//	2 × retained entries (proxy + death recipient)
//	+ 1 JavaBBinder owner-pin on the service stub while any client holds
//	  its proxy (the pin is per binder node, not per client)
//
// The invariant is what makes the whole reproduction trustworthy: every
// attack curve, baseline band and defender recovery is derived from it.
func TestServiceJGRAccountingInvariant(t *testing.T) {
	clock := simclock.New()
	k := kernel.New(clock, kernel.Config{})
	d := binder.New(k, binder.Config{})
	sm := binder.NewServiceManager(d)
	perms := permissions.NewManager(nil)
	server := k.Spawn(kernel.SpawnConfig{
		Name: kernel.SystemServerName, Uid: kernel.SystemUid, OomScoreAdj: kernel.SystemAdj,
		// Disable auto-GC so the count is exact at every step.
		VM: art.Config{GCTrigger: -1},
	})
	meta, _ := catalog.ServiceByName("clipboard")
	svc, err := New(Config{
		Meta: meta, Host: server, Driver: d, Clock: clock, Perms: perms, Seed: 1,
	}, sm)
	if err != nil {
		t.Fatal(err)
	}

	const method = "addPrimaryClipChangedListener"
	type clientState struct {
		proc   *kernel.Process
		client *Client
	}
	rng := rand.New(rand.NewSource(99))
	var clients []*clientState
	nextUid := kernel.Uid(10100)

	check := func(step int) {
		t.Helper()
		server.VM().GC() // collect any transient refs before counting
		want := 2 * svc.TotalEntries()
		if len(clients) > 0 {
			want++ // the stub node's owner pin, held while any proxy lives
		}
		if got := server.VM().GlobalRefCount(); got != want {
			t.Fatalf("step %d: server JGR = %d, want %d (entries=%d, clients=%d)",
				step, got, want, svc.TotalEntries(), len(clients))
		}
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // register from a (possibly new) client
			if len(clients) == 0 || rng.Intn(3) == 0 {
				proc := k.Spawn(kernel.SpawnConfig{Name: "app", Uid: nextUid})
				nextUid++
				c, err := NewClient(sm, d, proc, "app", "clipboard")
				if err != nil {
					t.Fatal(err)
				}
				clients = append(clients, &clientState{proc: proc, client: c})
			}
			cs := clients[rng.Intn(len(clients))]
			if err := cs.client.Register(method); err != nil {
				t.Fatal(err)
			}
		case op < 8: // unregister (may be a no-op)
			if len(clients) > 0 {
				cs := clients[rng.Intn(len(clients))]
				_ = cs.client.Unregister(method) // ErrNoEntry is fine
			}
		default: // client process dies
			if len(clients) > 0 {
				i := rng.Intn(len(clients))
				k.Kill(clients[i].proc.Pid(), "random death")
				clients = append(clients[:i], clients[i+1:]...)
			}
		}
		check(step)
	}
	if svc.Calls() == 0 {
		t.Fatal("no calls made")
	}
}
