package core

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

func TestStaticAudit(t *testing.T) {
	res, err := Audit(AuditConfig{ThirdPartyApps: 100})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Funnel()
	if f.SystemServices != 104 || f.NativePaths != 147 {
		t.Fatalf("funnel = %+v", f)
	}
	if res.Verify != nil {
		t.Fatal("static audit ran dynamic verification")
	}
	out := FormatFunnel(f)
	for _, want := range []string{"104", "147", "67", "80"} {
		if !strings.Contains(out, want) {
			t.Errorf("funnel output missing %q:\n%s", want, out)
		}
	}
}

func TestDynamicAudit(t *testing.T) {
	res, err := Audit(AuditConfig{Dynamic: true, VerifyCalls: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil {
		t.Fatal("dynamic audit skipped verification")
	}
	if got := len(res.Verify.Confirmed); got != 54+3 { // 54 system + 3 prebuilt (no third-party corpus)
		t.Fatalf("confirmed = %d, want 57", got)
	}
	out := FormatFindings(res.Verify)
	if !strings.Contains(out, "confirmed vulnerable interfaces: 57") {
		t.Errorf("findings output wrong:\n%.400s", out)
	}
	if !strings.Contains(out, "constraint held") {
		t.Errorf("findings output missing dynamic rejections:\n%.400s", out)
	}
}

func TestTableRendering(t *testing.T) {
	t1 := FormatTableI()
	if !strings.Contains(t1, "total: 44 interfaces") {
		t.Errorf("Table I wrong:\n%.200s", t1)
	}
	if !strings.Contains(t1, "acquireWakeLock") || !strings.Contains(t1, "WAKE_LOCK (normal)") {
		t.Error("Table I missing known rows")
	}
	t2 := FormatTableII()
	if !strings.Contains(t2, "WifiManager") || !strings.Contains(t2, "acquireWifiLock") {
		t.Error("Table II missing the wifi rows")
	}
	t3 := FormatTableIII()
	if !strings.Contains(t3, "enqueueToast") || !strings.Contains(t3, `"android"`) {
		t.Error("Table III missing the enqueueToast bypass")
	}
	t4 := FormatTableIV()
	if !strings.Contains(t4, "PicoTts") || !strings.Contains(t4, "external/svox/pico") {
		t.Error("Table IV missing PicoTts")
	}
	t5 := FormatTableV()
	if !strings.Contains(t5, "Google Text-to-speech") {
		t.Error("Table V missing rows")
	}
	// Row counts line up with the catalog.
	if got := strings.Count(t2, "\n") - 3; got != 9 {
		t.Errorf("Table II rows = %d, want 9", got)
	}
	if got := strings.Count(t4, "\n") - 2; got != len(catalog.PrebuiltAppInterfaces()) {
		t.Errorf("Table IV rows = %d", got)
	}
}
