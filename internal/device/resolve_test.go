package device

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
)

// oracleEntry is what the reference derivation knows about one service
// stub's handle: the service's kind and registry name and its code →
// method name table.
type oracleEntry struct {
	kind    string
	name    string
	methods map[binder.TxCode]string
}

// oracleIndex maps the handles of d's current service stubs to their
// services, reading each service's codes through its public accessors
// rather than through the device's handle index.
func oracleIndex(t *testing.T, d *Device) map[binder.Handle]oracleEntry {
	t.Helper()
	idx := make(map[binder.Handle]oracleEntry)
	for _, meta := range catalog.Services() {
		svc := d.Service(meta.Name)
		methods := make(map[binder.TxCode]string)
		for _, m := range svc.MethodNames() {
			code, _ := svc.Code(m)
			methods[code] = m
		}
		idx[d.Driver().HandleOf(svc.Stub())] = oracleEntry{kind: "system", name: meta.Name, methods: methods}
	}
	rows := append(catalog.PrebuiltAppInterfaces(), catalog.ThirdPartyAppInterfaces()...)
	for _, name := range d.AppServiceNames() {
		svc := d.AppService(name)
		methods := make(map[binder.TxCode]string)
		for _, row := range rows {
			if apps.AppServiceName(row) != name {
				continue
			}
			short := strings.TrimSuffix(row.Method[strings.IndexByte(row.Method, '.')+1:], "()")
			code, ok := svc.Code(short)
			if !ok {
				t.Fatalf("app service %s has no method %s", name, short)
			}
			methods[code] = short
		}
		idx[d.Driver().HandleOf(svc.Stub())] = oracleEntry{kind: "app", name: name, methods: methods}
	}
	return idx
}

// oracleResolve derives Resolve's answer by searching the catalog: a
// census method's row is the catalog row with its full name, and an app
// service's row is the first prebuilt row published under its name
// (none for a Table V service).
func oracleResolve(e oracleEntry, code binder.TxCode) (IPCTarget, bool) {
	m, ok := e.methods[code]
	if !ok {
		return IPCTarget{}, false
	}
	t := IPCTarget{Kind: e.kind, Service: e.name, Method: m}
	if e.kind == "system" {
		if row, ok := catalog.InterfaceByName(e.name + "." + m); ok {
			t.Catalogued = &row
		}
		return t, true
	}
	for _, row := range catalog.PrebuiltAppInterfaces() {
		if apps.AppServiceName(row) == e.name {
			t.AppRow = &row
			break
		}
	}
	return t, true
}

// checkResolve holds Resolve to the oracle for every handle the driver
// has minted and every code from 0 to one past the handle's method
// count. It returns how many handles resolved at least one code.
func checkResolve(t *testing.T, label string, d *Device, idx map[binder.Handle]oracleEntry) int {
	t.Helper()
	resolved := 0
	for h := binder.Handle(1); int(h) <= d.Driver().NodeCount(); h++ {
		e := idx[h]
		for code := binder.TxCode(0); int(code) <= len(e.methods)+1; code++ {
			want, wantOK := oracleResolve(e, code)
			got, ok := d.Resolve(h, code)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Resolve(%d, %d) = %+v, %v; want %+v, %v", label, h, code, got, ok, want, wantOK)
			}
		}
		if len(e.methods) > 0 {
			resolved++
		}
	}
	return resolved
}

// merge returns the union of two oracle indexes.
func merge(a, b map[binder.Handle]oracleEntry) map[binder.Handle]oracleEntry {
	out := make(map[binder.Handle]oracleEntry, len(a)+len(b))
	for h, e := range a {
		out[h] = e
	}
	for h, e := range b {
		out[h] = e
	}
	return out
}

// TestResolveMatchesReferenceDerivation holds Resolve to the reference
// derivation on every kind of device a trial runs on: a fresh boot, a
// clone, a clone with the Table V apps, a device after a soft reboot
// and the slot that recycled it, and a clone whose PicoTts service and
// mediaserver host were restarted, old handles included.
func TestResolveMatchesReferenceDerivation(t *testing.T) {
	const services = 104 + 3 // the census plus the prebuilt app services
	check := func(label string, d *Device, idx map[binder.Handle]oracleEntry, want int) {
		t.Helper()
		if got := checkResolve(t, label, d, idx); got != want {
			t.Fatalf("%s: %d handles resolved, want %d", label, got, want)
		}
	}

	SetCloneBoot(false)
	fresh, err := Boot(Config{Seed: 1})
	SetCloneBoot(true)
	if err != nil {
		t.Fatal(err)
	}
	check("fresh boot", fresh, oracleIndex(t, fresh), services)

	clone := boot(t, Config{Seed: 2})
	check("clone", clone, oracleIndex(t, clone), services)

	third := boot(t, Config{Seed: 3, InstallThirdPartyApps: true})
	check("third-party clone", third, oracleIndex(t, third), services+3)

	// A soft reboot retires every handle minted before it; the slot then
	// recycles the rebooted device.
	slot, err := NewSlot(Config{ServerVM: art.Config{MaxGlobalRefs: 2200}})
	if err != nil {
		t.Fatal(err)
	}
	rebooted, err := slot.Acquire(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := exhaust(rebooted); err != nil {
		t.Fatal(err)
	}
	if rebooted.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1", rebooted.SoftReboots())
	}
	check("soft-rebooted clone", rebooted, oracleIndex(t, rebooted), services)
	recycled, err := slot.Acquire(5)
	if err != nil {
		t.Fatal(err)
	}
	check("recycled slot", recycled, oracleIndex(t, recycled), services)

	// Restarted services add handles; the replaced incarnations' handles
	// still resolve.
	restarted := boot(t, Config{Seed: 6})
	before := oracleIndex(t, restarted)
	const pico = "com.svox.pico/PicoService"
	restarted.AppService(pico).Owner().ForceStop("crash")
	if err := restarted.RestartAppService(pico); err != nil {
		t.Fatal(err)
	}
	host := restarted.Host("mediaserver")
	if err := restarted.Kernel().Kill(host.Pid(), "crash"); err != nil {
		t.Fatal(err)
	}
	if err := restarted.RestartHost("mediaserver"); err != nil {
		t.Fatal(err)
	}
	after := oracleIndex(t, restarted)
	added := 0
	for h := range after {
		if _, ok := before[h]; !ok {
			added++
		}
	}
	if added < 2 {
		t.Fatalf("restarts minted %d new service handles, want a host's services and PicoService", added)
	}
	check("restarted clone", restarted, merge(before, after), services+added)
	if tmpl, err := template(Config{Seed: 6}); err != nil || len(tmpl.handleIndex) != services {
		t.Fatalf("the restarts wrote the template's handle index (err %v)", err)
	}
}

// TestRestartLeavesTemplateIndex restarts mediaserver on two clones of
// one sealed template at once: each restart must add its handles to its
// own copy of the index and its registrations to its own copy of the
// ServiceManager's map, so the template keeps its boot entries in both
// (and `make race` sees no write to either), each clone resolves both
// the replaced and the new handles, and each clone's registry holds a
// live stub for every census service.
func TestRestartLeavesTemplateIndex(t *testing.T) {
	tmpl, err := template(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tmpl == nil {
		t.Fatal("clone boot is off")
	}
	const bootEntries = 104 + 3
	if got := len(tmpl.handleIndex); got != bootEntries {
		t.Fatalf("template index has %d entries, want %d", got, bootEntries)
	}
	clones := make([]*Device, 2)
	before := make([]map[binder.Handle]oracleEntry, len(clones))
	for i := range clones {
		if clones[i], err = tmpl.CloneWithSeed(int64(i + 1)); err != nil {
			t.Fatal(err)
		}
		before[i] = oracleIndex(t, clones[i])
	}
	var wg sync.WaitGroup
	for _, d := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Kernel().Kill(d.Host("mediaserver").Pid(), "crash"); err != nil {
				t.Error(err)
				return
			}
			if err := d.RestartHost("mediaserver"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := len(tmpl.handleIndex); got != bootEntries {
		t.Fatalf("template index has %d entries after the clones' restarts, want %d", got, bootEntries)
	}
	if got := len(tmpl.ServiceManager().ListServices()); got != 104 {
		t.Fatalf("template registry lists %d services after the clones' restarts, want 104", got)
	}
	for _, meta := range catalog.Services() {
		if !tmpl.ServiceManager().CheckService(meta.Name) {
			t.Fatalf("template registry lost %s to a clone's restart", meta.Name)
		}
		for i, d := range clones {
			if !d.ServiceManager().CheckService(meta.Name) {
				t.Fatalf("clone %d: no live stub registered for %s after the restart", i, meta.Name)
			}
		}
	}
	for i, d := range clones {
		idx := merge(before[i], oracleIndex(t, d))
		if got, want := checkResolve(t, "restarted clone", d, idx), len(idx); got != want || want == bootEntries {
			t.Fatalf("clone %d: %d of %d indexed handles resolved after the restart; want all, more than the %d at boot", i, got, want, bootEntries)
		}
	}
}
