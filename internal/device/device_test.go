package device

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/art"
	"repro/internal/binder"
	"repro/internal/catalog"
	"repro/internal/kernel"
)

func boot(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBootRegistersAllServices(t *testing.T) {
	d := boot(t, Config{Seed: 1})
	names := d.ServiceManager().ListServices()
	if len(names) != 104 {
		t.Fatalf("registered services = %d, want 104", len(names))
	}
	for _, meta := range catalog.Services() {
		svc := d.Service(meta.Name)
		if svc == nil {
			t.Fatalf("service %s not instantiated", meta.Name)
		}
		if svc.Host().Name() != meta.HostProcess() {
			t.Errorf("%s hosted in %s, want %s", meta.Name, svc.Host().Name(), meta.HostProcess())
		}
	}
}

func TestBaselineProcessCount(t *testing.T) {
	d := boot(t, Config{Seed: 1})
	if got := d.Kernel().RunningCount(); got != DefaultBaselineProcesses {
		t.Fatalf("RunningCount = %d, want %d (stock Android, Fig. 4)", got, DefaultBaselineProcesses)
	}
}

func TestBaselineJGRBand(t *testing.T) {
	d := boot(t, Config{Seed: 1})
	got := d.SystemServer().VM().GlobalRefCount()
	if got < 1000 || got > 3000 {
		t.Fatalf("system_server baseline JGR = %d, want within Fig. 4's 1,000–3,000 band", got)
	}
}

func TestPrebuiltServicesPublished(t *testing.T) {
	d := boot(t, Config{Seed: 1})
	names := d.AppServices().Names()
	// PicoService + GattService + AdapterService.
	if len(names) != 3 {
		t.Fatalf("published app services = %v, want 3", names)
	}
	for _, row := range catalog.PrebuiltAppInterfaces() {
		if d.AppService("") != nil {
			t.Fatal("empty name resolved")
		}
		if svc := d.AppService(appServiceNameOf(row)); svc == nil {
			t.Errorf("app service for %s not published", row.FullName())
		}
	}
}

func appServiceNameOf(row catalog.AppInterface) string {
	// mirrors apps.AppServiceName without re-importing it in each test
	return row.Package + "/" + row.Method[:indexByte(row.Method, '.')]
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}

func TestEndToEndAttackAndSoftReboot(t *testing.T) {
	d := boot(t, Config{Seed: 1, ServerVM: art.Config{MaxGlobalRefs: 2200}})
	attacker, err := d.Apps().Install("com.evil.app")
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.NewClient(attacker, "clipboard")
	if err != nil {
		t.Fatal(err)
	}
	ss := d.SystemServer()
	for i := 0; i < 5000 && ss.Alive(); i++ {
		c.Register("addPrimaryClipChangedListener")
	}
	if ss.Alive() {
		t.Fatal("attack did not exhaust system_server")
	}
	if d.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1", d.SoftReboots())
	}
	// After recovery the device is functional again: fresh system_server,
	// services re-registered, fresh JGR table.
	if d.SystemServer() == ss || !d.SystemServer().Alive() {
		t.Fatal("system_server not restarted")
	}
	if got := len(d.ServiceManager().ListServices()); got != 104 {
		t.Fatalf("services after reboot = %d, want 104", got)
	}
	if got := d.Kernel().RunningCount(); got != DefaultBaselineProcesses {
		t.Fatalf("processes after reboot = %d, want %d", got, DefaultBaselineProcesses)
	}
	// The attacker's process died in the reboot but can come back.
	if attacker.Running() {
		t.Fatal("attacker survived the soft reboot")
	}
	c2, err := d.NewClient(attacker, "clipboard")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Register("addPrimaryClipChangedListener"); err != nil {
		t.Fatalf("post-reboot register failed: %v", err)
	}
}

func TestOnRebootCallback(t *testing.T) {
	d := boot(t, Config{Seed: 1, ServerVM: art.Config{MaxGlobalRefs: 1800}})
	var reasons []string
	d.OnReboot(func(r string) { reasons = append(reasons, r) })
	attacker, _ := d.Apps().Install("com.evil.app")
	c, _ := d.NewClient(attacker, "audio")
	for i := 0; i < 3000 && d.Kernel().SoftReboots() == 0; i++ {
		c.Register("startWatchingRoutes")
	}
	if len(reasons) != 1 {
		t.Fatalf("OnReboot fired %d times, want 1", len(reasons))
	}
}

func TestResolveSystemRecord(t *testing.T) {
	d := boot(t, Config{Seed: 1})
	attacker, _ := d.Apps().Install("com.evil.app")
	if err := d.Driver().EnableIPCLogging(); err != nil {
		t.Fatal(err)
	}
	c, _ := d.NewClient(attacker, "clipboard")
	if err := c.Register("addPrimaryClipChangedListener"); err != nil {
		t.Fatal(err)
	}
	d.Driver().FlushLog()
	var w binder.LogColumns
	if _, err := d.Driver().AppendLogColumnsSince(kernel.SystemUid, d.SystemServer().Pid(), 0, &w); err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Fatal("no records logged")
	}
	last := w.Len() - 1
	target, ok := d.Resolve(w.Handle[last], w.Code[last])
	if !ok {
		t.Fatal("record did not resolve")
	}
	if target.Kind != "system" || target.FullName() != "clipboard.addPrimaryClipChangedListener" {
		t.Fatalf("target = %+v", target)
	}
	if target.Catalogued == nil || !target.Catalogued.Exploitable() {
		t.Fatal("catalogued row not attached")
	}
}

func TestResolveUnknownRecord(t *testing.T) {
	d := boot(t, Config{Seed: 1})
	if _, ok := d.Resolve(0xFFFF, 0); ok {
		t.Fatal("unknown handle resolved")
	}
}

func TestDeterministicBoot(t *testing.T) {
	d1 := boot(t, Config{Seed: 42})
	d2 := boot(t, Config{Seed: 42})
	if d1.SystemServer().VM().GlobalRefCount() != d2.SystemServer().VM().GlobalRefCount() {
		t.Fatal("boots with equal seeds differ in baseline JGR")
	}
	if d1.Kernel().RunningCount() != d2.Kernel().RunningCount() {
		t.Fatal("boots with equal seeds differ in process count")
	}
}

func TestStatsAndDump(t *testing.T) {
	d := boot(t, Config{Seed: 12})
	attacker, _ := d.Apps().Install("com.evil.app")
	c, err := d.NewClient(attacker, "clipboard")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := c.Register("addPrimaryClipChangedListener"); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Services != 104 || s.Processes != DefaultBaselineProcesses+1 {
		t.Fatalf("stats = %+v", s)
	}
	// Three running apps: the attacker plus the two prebuilt core apps.
	if s.RunningApps != 3 || s.Transactions == 0 || s.JGRCap != 51200 {
		t.Fatalf("stats = %+v", s)
	}
	var buf strings.Builder
	d.DumpState(&buf)
	out := buf.String()
	for _, want := range []string{"DEVICE STATE", "clipboard", "com.evil.app", "system_server JGR"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestBroadcastChannelBypassesBinderAccounting(t *testing.T) {
	d := boot(t, Config{Seed: 13})
	d.Driver().EnableIPCLogging()
	app, _ := d.Apps().Install("com.covert.app")
	proc := app.Start()
	base := d.SystemServer().VM().GlobalRefCount()
	seq := d.Driver().LogStats().Seq
	for i := 0; i < 25; i++ {
		if err := d.RegisterBroadcastReceiver(proc); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.SystemServer().VM().GlobalRefCount(); got != base+25 {
		t.Fatalf("JGR growth = %d, want 25", got-base)
	}
	// No binder evidence exists for the covert channel: the driver
	// issued no log sequence number while the receivers registered.
	if got := d.Driver().LogStats().Seq; got != seq {
		t.Fatalf("covert channel left %d binder records", got-seq)
	}
	// Registrant death releases the pins.
	app.ForceStop("gone")
	if got := d.SystemServer().VM().GlobalRefCount(); got != base {
		t.Fatalf("JGR after registrant death = %d, want %d", got, base)
	}
}

func TestThirdPartyInstallAndResolve(t *testing.T) {
	d := boot(t, Config{Seed: 14, InstallThirdPartyApps: true})
	// All three Table V services published alongside the prebuilt three.
	if got := len(d.AppServices().Names()); got != 6 {
		t.Fatalf("published app services = %d, want 6", got)
	}
	tts := d.Apps().ByPackage("com.google.android.tts")
	if tts == nil || !tts.Running() {
		t.Fatal("Google TTS app not installed/running")
	}
	// Drive one call and resolve its record to the app row.
	d.Driver().EnableIPCLogging()
	client, _ := d.Apps().Install("com.caller.app")
	cp := client.Start()
	row := catalog.ThirdPartyAppInterfaces()[0]
	ref, err := d.AppServices().Bind("com.google.android.tts/TextToSpeechService", cp)
	if err != nil {
		t.Fatal(err)
	}
	svc := d.AppService("com.google.android.tts/TextToSpeechService")
	code, ok := svc.Code("setCallback")
	if !ok {
		t.Fatal("setCallback missing")
	}
	data := binder.NewParcel()
	data.WriteStrongBinder(d.Driver().NewLocalBinder(cp, "android.os.Binder", nil))
	if err := ref.Binder().Transact(code, data, nil); err != nil {
		t.Fatal(err)
	}
	d.Driver().FlushLog()
	var w binder.LogColumns
	if _, err := d.Driver().AppendLogColumnsSince(kernel.SystemUid, svc.Owner().Proc().Pid(), 0, &w); err != nil {
		t.Fatal(err)
	}
	var found bool
	for i := 0; i < w.Len(); i++ {
		tgt, ok := d.Resolve(w.Handle[i], w.Code[i])
		if ok && tgt.Kind == "app" && tgt.Method == "setCallback" {
			found = true
			if tgt.AppRow == nil && row.Package != "" {
				// Third-party rows are not in PrebuiltAppInterfaces; the
				// resolver attaches no catalog row, which is fine.
				_ = row
			}
		}
	}
	if !found {
		t.Fatal("app-service record did not resolve")
	}
	// Survives a soft reboot: republished.
	evil, _ := d.Apps().Install("com.evil.app")
	c, _ := d.NewClient(evil, "audio")
	for i := 0; i < 60000 && d.SoftReboots() == 0; i++ {
		c.Register("startWatchingRoutes")
	}
	if d.SoftReboots() != 1 {
		t.Fatal("no reboot")
	}
	if got := len(d.AppServices().Names()); got != 6 {
		t.Fatalf("app services after reboot = %d, want 6", got)
	}
}

// TestSoftRebootKillsAttacker exhausts system_server and checks that
// the soft reboot took the attacker down with it, under the soft-reboot
// kill reason the kernel stamps on every victim.
func TestSoftRebootKillsAttacker(t *testing.T) {
	d := boot(t, Config{Seed: 15, ServerVM: art.Config{MaxGlobalRefs: 2000}})
	evil, _ := d.Apps().Install("com.evil.app")
	c, _ := d.NewClient(evil, "clipboard")
	for i := 0; i < 3000 && d.SoftReboots() == 0; i++ {
		c.Register("addPrimaryClipChangedListener")
	}
	if d.SoftReboots() != 1 {
		t.Fatalf("SoftReboots = %d, want 1", d.SoftReboots())
	}
	if evil.Running() {
		t.Fatal("attacker survived the soft reboot")
	}
	if got := evil.LastExitReason(); !strings.HasPrefix(got, "soft reboot: ") {
		t.Fatalf("attacker exit reason = %q, want a soft reboot", got)
	}
}

// exhaust drives an attacker's clipboard registrations on d until
// system_server's JGR table overflows and the device soft-reboots.
func exhaust(d *Device) error {
	evil, err := d.Apps().Install("com.evil.app")
	if err != nil {
		return err
	}
	c, err := d.NewClient(evil, "clipboard")
	if err != nil {
		return err
	}
	for d.SoftReboots() == 0 {
		if err := c.Register("addPrimaryClipChangedListener"); err != nil && d.SoftReboots() == 0 {
			return err
		}
	}
	return nil
}

// bootState is what a soft reboot must restore, pids and binder handles
// aside: every service's method name → code table, system_server's and
// each host's JGR count, the running-process count, the sorted process
// names and the sorted names of the processes that have a runtime.
type bootState struct {
	codes    map[string]map[string]binder.TxCode
	jgr      map[string]int
	running  int
	names    []string
	runtimes []string
}

func bootStateOf(d *Device) bootState {
	st := bootState{
		codes:   make(map[string]map[string]binder.TxCode),
		jgr:     map[string]int{kernel.SystemServerName: d.SystemServer().VM().GlobalRefCount()},
		running: d.Kernel().RunningCount(),
	}
	for _, meta := range catalog.Services() {
		svc := d.Service(meta.Name)
		codes := make(map[string]binder.TxCode)
		for _, m := range svc.MethodNames() {
			codes[m], _ = svc.Code(m)
		}
		st.codes[meta.Name] = codes
	}
	for _, h := range d.HostNames() {
		st.jgr[h] = d.Host(h).VM().GlobalRefCount()
	}
	for _, p := range d.Kernel().Processes() {
		st.names = append(st.names, p.Name())
		if p.VM() != nil {
			st.runtimes = append(st.runtimes, p.Name())
		}
	}
	sort.Strings(st.names)
	sort.Strings(st.runtimes)
	return st
}

// TestSoftRebootRestoresBootState exhausts system_server on a cloned and
// on a freshly booted device and checks that the soft reboot rebuilt
// what a fresh boot builds.
func TestSoftRebootRestoresBootState(t *testing.T) {
	cfg := Config{Seed: 1, ServerVM: art.Config{MaxGlobalRefs: 2200}}
	fresh, err := BootFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bootStateOf(fresh)
	if want.running != DefaultBaselineProcesses {
		t.Fatalf("RunningCount after a fresh boot = %d, want %d", want.running, DefaultBaselineProcesses)
	}
	for _, p := range fresh.Kernel().Processes() {
		if (p.VM() == nil) != (p.Uid() == kernel.RootUid) {
			t.Fatalf("fresh boot: %s (uid %d) has a runtime: %v; only root's native daemons run none", p.Name(), p.Uid(), p.VM() != nil)
		}
	}
	for name, bootFn := range map[string]func(Config) (*Device, error){"clone": Boot, "fresh": BootFresh} {
		d, err := bootFn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := exhaust(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := bootStateOf(d)
		if !reflect.DeepEqual(got.codes, want.codes) {
			t.Errorf("%s: service code tables after the reboot differ from a fresh boot's", name)
		}
		if !reflect.DeepEqual(got.jgr, want.jgr) {
			t.Errorf("%s: JGR counts after the reboot = %v, fresh boot %v", name, got.jgr, want.jgr)
		}
		if got.running != want.running {
			t.Errorf("%s: RunningCount after the reboot = %d, fresh boot %d", name, got.running, want.running)
		}
		if !reflect.DeepEqual(got.names, want.names) {
			t.Errorf("%s: process names after the reboot differ from a fresh boot's", name)
		}
		if !reflect.DeepEqual(got.runtimes, want.runtimes) {
			t.Errorf("%s: processes with a runtime after the reboot = %v, fresh boot %v", name, got.runtimes, want.runtimes)
		}
	}
}

// TestConcurrentSoftReboots soft-reboots two devices on two goroutines,
// first two booted from scratch, then two clones of one sealed template:
// the service tables every boot and reboot reads are shared
// process-wide, and each clone's reboot copies its process table from
// the template's and replaces the registry map it shares with it (run
// under -race via `make race`).
func TestConcurrentSoftReboots(t *testing.T) {
	cfg := Config{ServerVM: art.Config{MaxGlobalRefs: 2000}}
	tmpl, err := template(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl == nil {
		t.Fatal("clone boot is off")
	}
	for _, cloned := range []bool{false, true} {
		var wg sync.WaitGroup
		for seed := int64(1); seed <= 2; seed++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				c := cfg
				c.Seed = seed
				boot := BootFresh
				if cloned {
					boot = func(c Config) (*Device, error) { return tmpl.CloneWithSeed(c.Seed) }
				}
				d, err := boot(c)
				if err != nil {
					t.Error(err)
					return
				}
				if err := exhaust(d); err != nil {
					t.Errorf("cloned %v, seed %d: %v", cloned, seed, err)
					return
				}
				if d.SoftReboots() != 1 || !d.SystemServer().Alive() {
					t.Errorf("cloned %v, seed %d: soft reboots = %d, system_server alive = %v", cloned, seed, d.SoftReboots(), d.SystemServer().Alive())
				}
			}(seed)
		}
		wg.Wait()
	}
	if tmpl.SoftReboots() != 0 || len(tmpl.ServiceManager().ListServices()) != 104 {
		t.Fatalf("template after its clones' reboots: %d soft reboots, %d services; want 0, 104", tmpl.SoftReboots(), len(tmpl.ServiceManager().ListServices()))
	}
}

// BenchmarkSoftReboot times the soft-reboot layer on its own:
// system_server's runtime abort on JGR overflow, the kernel reaping every
// process, the binder driver reaping their nodes, and restartSystem
// bringing the services and baseline processes back. Each iteration
// clones a device with a 2,200-entry cap and, untimed, lets an attacker
// fill the table to the cap; the timed part is the one add that
// overflows it.
func BenchmarkSoftReboot(b *testing.B) {
	const jgrCap = 2200
	cfg := Config{Seed: 1, ServerVM: art.Config{MaxGlobalRefs: jgrCap}}
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		d, err := Boot(cfg)
		if err != nil {
			b.Fatal(err)
		}
		evil, err := d.Apps().Install("com.evil.app")
		if err != nil {
			b.Fatal(err)
		}
		c, err := d.NewClient(evil, "clipboard")
		if err != nil {
			b.Fatal(err)
		}
		vm := d.SystemServer().VM()
		for vm.GlobalRefCount() < jgrCap-8 {
			if err := c.Register("addPrimaryClipChangedListener"); err != nil {
				b.Fatal(err)
			}
		}
		for id := art.ObjectID(1 << 40); vm.GlobalRefCount() < jgrCap; id++ {
			if _, err := vm.AddGlobalRef(&art.Object{ID: id}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		vm.AddGlobalRef(&art.Object{ID: 1 << 41})
		b.StopTimer()
		if d.SoftReboots() != 1 || !d.SystemServer().Alive() {
			b.Fatalf("soft reboots = %d, system_server alive = %v; want one reboot and a live system_server",
				d.SoftReboots(), d.SystemServer().Alive())
		}
	}
}
