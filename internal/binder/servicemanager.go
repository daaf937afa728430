package binder

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/kernel"
)

// ServiceManager is the binder context manager: the registry mapping
// service names to binder objects. System services register themselves at
// boot (addService / publishBinderService, paper §III-A); any app can look
// a service up and talk to it directly — which is exactly how malicious
// apps bypass the protections baked into service helper classes
// (Code-Snippet 2 calls ServiceManager.getService("wifi") and hits the raw
// IWifiManager interface).
//
// The registry maps each name to the handle of its binder's node on this
// manager's driver. A handle names the same service on every clone of a
// device, because a clone replays stub minting in boot order and so
// reproduces its template's handle space exactly: a clone shares its
// template's map, and copies it before its first write.
type ServiceManager struct {
	driver   *Driver
	services map[string]Handle
	// shared marks services as a map this manager shares with the
	// template it was cloned from, which it copies before its first
	// write, as RestartHost copies the device's handle index.
	shared bool
}

// Registration errors.
var (
	ErrServiceExists   = errors.New("servicemanager: service already registered")
	ErrServiceNotFound = errors.New("servicemanager: service not found")
	ErrNotSystem       = errors.New("servicemanager: only system processes may register services")
)

// NewServiceManager creates an empty registry on the driver.
func NewServiceManager(d *Driver) *ServiceManager {
	return &ServiceManager{driver: d, services: newRegistry()}
}

// newRegistry returns an empty name map presized for the full census (104
// services): a boot or soft reboot registers every service, and
// incremental map growth would rehash the table several times on that
// path.
func newRegistry() map[string]Handle { return make(map[string]Handle, 128) }

// Clone returns a registry for a cloned device's driver that shares this
// (template) registry's map until its first write. No re-registration
// runs: each handle names the clone's replayed stub on d.
func (sm *ServiceManager) Clone(d *Driver) *ServiceManager {
	return &ServiceManager{driver: d, services: sm.services, shared: true}
}

// resolve returns the binder registered under name, or nil.
func (sm *ServiceManager) resolve(name string) *LocalBinder {
	h, ok := sm.services[name]
	if !ok {
		return nil
	}
	return sm.driver.nodes[h-1].local
}

// own copies a shared map before the first write to it.
func (sm *ServiceManager) own() {
	if sm.shared {
		sm.services = maps.Clone(sm.services)
		sm.shared = false
	}
}

// AddService registers a service binder under name, minting its node on
// the driver. Only non-app uids may register (SELinux confines
// servicemanager registration to system domains).
func (sm *ServiceManager) AddService(name string, b *LocalBinder) error {
	if name == "" {
		return errors.New("servicemanager: empty service name")
	}
	if b == nil {
		return errors.New("servicemanager: nil binder")
	}
	if kernel.IsAppUid(b.Owner().Uid()) {
		return fmt.Errorf("register %q from uid %d: %w", name, b.Owner().Uid(), ErrNotSystem)
	}
	if _, ok := sm.services[name]; ok {
		return fmt.Errorf("register %q: %w", name, ErrServiceExists)
	}
	sm.own()
	sm.services[name] = sm.driver.ensureNode(b).handle
	return nil
}

// RemoveService drops a registration, as a host restart does before it
// registers the host's services again.
func (sm *ServiceManager) RemoveService(name string) {
	sm.own()
	delete(sm.services, name)
}

// Clear drops every registration (soft reboot).
func (sm *ServiceManager) Clear() {
	sm.services = newRegistry()
	sm.shared = false
}

// GetService returns client's handle on the named service: a retained
// proxy whose JGR lives in the client process, as the framework caches
// service binders process-wide.
func (sm *ServiceManager) GetService(name string, client *kernel.Process) (*BinderRef, error) {
	b := sm.resolve(name)
	if b == nil {
		return nil, fmt.Errorf("get %q: %w", name, ErrServiceNotFound)
	}
	if !b.IsAlive() {
		return nil, fmt.Errorf("get %q: %w", name, ErrDeadObject)
	}
	return sm.driver.Materialize(client, b)
}

// CheckService reports whether a live service is registered under name.
func (sm *ServiceManager) CheckService(name string) bool {
	b := sm.resolve(name)
	return b != nil && b.IsAlive()
}

// ListServices returns all registered service names, sorted — the
// `service list` view the paper's IPC method extractor starts from.
func (sm *ServiceManager) ListServices() []string {
	out := make([]string, 0, len(sm.services))
	//maporder:sorted below
	for name := range sm.services {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
