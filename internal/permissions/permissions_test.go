package permissions

import (
	"errors"
	"testing"

	"repro/internal/kernel"
)

// TestLevel: a manager reads the definition set it was built on, treats
// an undefined permission as signature (unobtainable), and neither it
// nor a clone writes the set.
func TestLevel(t *testing.T) {
	levels := map[Permission]Level{"WAKE_LOCK": LevelNormal}
	m := NewManager(levels)
	if got := m.Level("WAKE_LOCK"); got != LevelNormal {
		t.Fatalf("Level = %v, want normal", got)
	}
	if got := m.Level("MYSTERY"); got != LevelSignature {
		t.Fatalf("undefined Level = %v, want signature", got)
	}
	var clone Manager
	m.CloneInto(&clone)
	if err := clone.Grant(10001, "WAKE_LOCK"); err != nil {
		t.Fatal(err)
	}
	if clone.Level("WAKE_LOCK") != LevelNormal || len(levels) != 1 || m.Check(10001, "WAKE_LOCK") {
		t.Fatalf("after a grant on a clone: clone level %v, %d definitions, template grant %v; want normal, 1, false",
			clone.Level("WAKE_LOCK"), len(levels), m.Check(10001, "WAKE_LOCK"))
	}
}

func TestGrantCheckEnforce(t *testing.T) {
	m := NewManager(map[Permission]Level{"READ_PHONE_STATE": LevelDangerous})
	const app kernel.Uid = 10061

	if m.Check(app, "READ_PHONE_STATE") {
		t.Fatal("ungranted permission passed Check")
	}
	var de *DeniedError
	if err := m.Enforce(app, "READ_PHONE_STATE"); !errors.As(err, &de) {
		t.Fatalf("Enforce error = %v, want DeniedError", err)
	}
	if err := m.Grant(app, "READ_PHONE_STATE"); err != nil {
		t.Fatal(err)
	}
	if err := m.Enforce(app, "READ_PHONE_STATE"); err != nil {
		t.Fatalf("Enforce after grant: %v", err)
	}
	m.Revoke(app, "READ_PHONE_STATE")
	if m.Check(app, "READ_PHONE_STATE") {
		t.Fatal("revoked permission still passes")
	}
}

func TestEmptyPermissionAlwaysPasses(t *testing.T) {
	m := NewManager(nil)
	if err := m.Enforce(10001, ""); err != nil {
		t.Fatalf("empty permission enforced: %v", err)
	}
}

func TestSystemUidImplicitlyHoldsAll(t *testing.T) {
	m := NewManager(map[Permission]Level{"X": LevelSignature})
	if !m.Check(kernel.SystemUid, "X") {
		t.Fatal("system uid denied")
	}
	if err := m.Enforce(kernel.SystemUid, "X"); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureUnobtainableByApps(t *testing.T) {
	m := NewManager(map[Permission]Level{"SIG_ONLY": LevelSignature})
	if err := m.Grant(10001, "SIG_ONLY"); err == nil {
		t.Fatal("signature permission granted to app uid")
	}
	if err := m.Grant(kernel.SystemUid, "SIG_ONLY"); err != nil {
		t.Fatalf("system grant failed: %v", err)
	}
	if m.ObtainableByApp("SIG_ONLY") {
		t.Fatal("signature permission reported obtainable")
	}
}

func TestObtainableByApp(t *testing.T) {
	m := NewManager(map[Permission]Level{"N": LevelNormal, "D": LevelDangerous})
	for perm, want := range map[Permission]bool{"": true, "N": true, "D": true, "UNDEFINED": false} {
		if got := m.ObtainableByApp(perm); got != want {
			t.Errorf("ObtainableByApp(%q) = %v, want %v", perm, got, want)
		}
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelNone:      "none",
		LevelNormal:    "normal",
		LevelDangerous: "dangerous",
		LevelSignature: "signature",
		Level(42):      "Level(42)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
}
