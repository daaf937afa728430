package device

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestMetricsProcFileRegisteredAtBoot(t *testing.T) {
	d := boot(t, Config{Seed: 22})
	out, err := d.Kernel().ProcFS().Read(MetricsPath, kernel.SystemUid)
	if err != nil {
		t.Fatalf("system uid read: %v", err)
	}
	text := string(out)
	for _, want := range []string{
		"jgre_device_uptime_seconds",
		"jgre_device_processes",
		"jgre_binder_transactions_total",
		`jgre_jgr_table_cap{process="system_server"} 51200`,
		"jgre_defender_attached 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("%s missing %q", MetricsPath, want)
		}
	}
	if _, err := d.Kernel().ProcFS().Read(MetricsPath, kernel.FirstAppUid); err == nil {
		t.Fatalf("app uid could read %s; want ACL denial", MetricsPath)
	}
	// Gauges follow live state: uptime advances with the virtual clock.
	d.Clock().Advance(5 * time.Second)
	if v, _ := d.Metrics().Value("jgre_device_uptime_seconds"); v < 5 {
		t.Fatalf("uptime gauge = %v, want >= 5", v)
	}
}

func TestHostMetricsSurviveSoftReboot(t *testing.T) {
	d := boot(t, Config{Seed: 23})
	before, _ := d.Metrics().Value(`jgre_jgr_table_size{process="system_server"}`)
	if before == 0 {
		t.Fatal("baseline JGR gauge reads 0")
	}
	// Exhaust the table to force a soft reboot; the gauge must re-point
	// at the new incarnation rather than keep reading the dead VM.
	evil, _ := d.Apps().Install("com.evil.app")
	c, err := d.NewClient(evil, "audio")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60000 && d.SoftReboots() == 0; i++ {
		c.Register("startWatchingRoutes")
	}
	if d.SoftReboots() == 0 {
		t.Fatal("no soft reboot")
	}
	after, ok := d.Metrics().Value(`jgre_jgr_table_size{process="system_server"}`)
	if !ok {
		t.Fatal("gauge vanished after reboot")
	}
	if got := float64(d.SystemServer().VM().GlobalRefCount()); after != got {
		t.Fatalf("gauge = %v, new incarnation holds %v", after, got)
	}
	if v, _ := d.Metrics().Value("jgre_device_soft_reboots_total"); v != 1 {
		t.Fatalf("soft_reboots_total = %v, want 1", v)
	}
}
