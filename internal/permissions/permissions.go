// Package permissions models Android's install-time permission system as
// far as the paper needs it: permission definitions with protection
// levels, per-uid grants, and enforcement. The paper's central point
// (§I, §II-B) is that this model is coarse-grained — it gates *whether* an
// app may call a service, never *how many* resources the calls consume —
// so a JGRE attack is possible even through fully "authorized" requests.
package permissions

import (
	"fmt"

	"repro/internal/kernel"
)

// Level is a permission protection level.
type Level int

// Protection levels, mirroring AndroidManifest protectionLevel values.
// LevelNone marks interfaces that require no permission at all.
const (
	LevelNone Level = iota
	LevelNormal
	LevelDangerous
	LevelSignature
)

// String returns the AOSP name of the level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelNormal:
		return "normal"
	case LevelDangerous:
		return "dangerous"
	case LevelSignature:
		return "signature"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Permission names a permission, e.g. "WAKE_LOCK" (the paper's tables use
// the short form; the android.permission. prefix is implied).
type Permission string

// DeniedError reports a failed permission check.
type DeniedError struct {
	Uid  kernel.Uid
	Perm Permission
}

func (e *DeniedError) Error() string {
	return fmt.Sprintf("permission denial: uid %d lacks %s", e.Uid, e.Perm)
}

// Manager holds the permission definitions and per-uid grants. The
// definitions are static platform data: a manager reads the table it was
// built on and never writes it, so every manager, a device's clones
// included, shares one.
type Manager struct {
	levels map[Permission]Level
	grants map[kernel.Uid]map[Permission]bool
}

// NewManager returns a manager with no grants over the definition set
// levels, which it never writes. Devices and the analysis pass the
// catalog's PermissionLevels.
func NewManager(levels map[Permission]Level) *Manager {
	return &Manager{
		levels: levels,
		grants: make(map[kernel.Uid]map[Permission]bool),
	}
}

// CloneInto populates dst as a copy of m: the definitions are shared,
// grants are deep-copied, so concurrent clones never write m. A dst
// carrying grant maps from a retired clone (the fleet slot recycle
// path) has them rewound and reused in place.
func (m *Manager) CloneInto(dst *Manager) {
	dst.levels = m.levels
	if dst.grants == nil {
		dst.grants = make(map[kernel.Uid]map[Permission]bool, len(m.grants))
	} else {
		clear(dst.grants)
	}
	for uid, g := range m.grants {
		ng := make(map[Permission]bool, len(g))
		for p, v := range g {
			ng[p] = v
		}
		dst.grants[uid] = ng
	}
}

// Level returns the protection level of p. Undefined permissions report
// LevelSignature: an unknown permission can never be granted to a
// third-party app, which is the safe default for the analysis.
func (m *Manager) Level(p Permission) Level {
	if l, ok := m.levels[p]; ok {
		return l
	}
	return LevelSignature
}

// Grant gives uid the permission. Granting a signature-level permission to
// an app uid fails: third-party apps cannot hold them, which is what makes
// signature-gated interfaces unreachable to the paper's attacker model.
func (m *Manager) Grant(uid kernel.Uid, p Permission) error {
	if m.Level(p) == LevelSignature && kernel.IsAppUid(uid) {
		return fmt.Errorf("grant %s to app uid %d: signature permission", p, uid)
	}
	g, ok := m.grants[uid]
	if !ok {
		g = make(map[Permission]bool)
		m.grants[uid] = g
	}
	g[p] = true
	return nil
}

// Revoke removes a grant.
func (m *Manager) Revoke(uid kernel.Uid, p Permission) {
	delete(m.grants[uid], p)
}

// Check reports whether uid holds p. System uids implicitly hold
// everything.
func (m *Manager) Check(uid kernel.Uid, p Permission) bool {
	if !kernel.IsAppUid(uid) {
		return true
	}
	return m.grants[uid][p]
}

// Enforce returns a DeniedError if uid does not hold p. An empty
// permission always passes (the interface is unguarded).
func (m *Manager) Enforce(uid kernel.Uid, p Permission) error {
	if p == "" {
		return nil
	}
	if !m.Check(uid, p) {
		return &DeniedError{Uid: uid, Perm: p}
	}
	return nil
}

// ObtainableByApp reports whether a third-party app can acquire the
// permission at all (normal: auto-granted at install; dangerous: user
// grant; signature: never). The risky-IPC sifter uses this to discard
// interfaces outside the attacker's reach (paper §III-C3).
func (m *Manager) ObtainableByApp(p Permission) bool {
	if p == "" {
		return true
	}
	switch m.Level(p) {
	case LevelNone, LevelNormal, LevelDangerous:
		return true
	default:
		return false
	}
}
