package services

import (
	"sort"
	"sync"

	"repro/internal/binder"
	"repro/internal/catalog"
)

// MethodCodes computes the transaction-code table for a service exposing
// the given catalogued interfaces: the catalogued methods, their generated
// unregister pairs, and the fixed innocent set, numbered 1..n in sorted
// name order. The assignment is a pure function of the catalog, so clients
// (whose stubs would be compiled from the same AIDL in real Android) can
// derive codes without talking to the service.
func MethodCodes(ifaces []catalog.Interface) map[string]binder.TxCode {
	names := MethodNamesFor(ifaces)
	codes := make(map[string]binder.TxCode, len(names))
	for i, n := range names {
		codes[n] = binder.TxCode(i + 1)
	}
	return codes
}

// MethodNamesFor returns the sorted dispatchable method names for a
// service exposing the given catalogued interfaces.
func MethodNamesFor(ifaces []catalog.Interface) []string {
	seen := make(map[string]bool)
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, spec := range ifaces {
		add(spec.Method)
	}
	for _, spec := range ifaces {
		add(UnregisterPrefix + spec.Method)
	}
	for _, in := range InnocentMethods {
		add(in.Name)
	}
	sort.Strings(names)
	return names
}

// Dispatch is one service's dispatch table: transaction code → method
// and method name → code, numbered by MethodCodes. A table is a pure
// function of the static catalog, so each service's is built once per
// process, on its first lookup, and never written after: every instance
// of the service (boot, soft reboot, host restart, clone), every Client
// of it and the device's handle index read the same one, from any
// goroutine.
type Dispatch struct {
	// methods holds the method with code c at index c-1: MethodCodes
	// numbers a service's methods 1..n.
	methods []method
	codes   map[string]binder.TxCode
}

// method returns the method with the given code, or nil.
func (t *Dispatch) method(code binder.TxCode) *method {
	if code == 0 || int(code) > len(t.methods) {
		return nil
	}
	return &t.methods[code-1]
}

// Lookup resolves a transaction code to its method name and, for a
// catalogued method, its catalog row (nil for an unregister pair or an
// innocent method).
func (t *Dispatch) Lookup(code binder.TxCode) (name string, row *catalog.Interface, ok bool) {
	m := t.method(code)
	if m == nil {
		return "", nil, false
	}
	return m.name, m.spec, true
}

// dispatchTables holds the built tables, service name → *Dispatch.
var dispatchTables sync.Map

// dispatchFor returns the named service's shared dispatch table.
func dispatchFor(serviceName string) *Dispatch {
	if t, ok := dispatchTables.Load(serviceName); ok {
		return t.(*Dispatch)
	}
	t, _ := dispatchTables.LoadOrStore(serviceName, newDispatch(catalog.InterfacesForService(serviceName)))
	return t.(*Dispatch)
}

// newDispatch builds the table for a service exposing ifaces: each
// catalogued method retains its caller's binder and gets a generated
// unregister pair, and the innocent set fills the names left free.
func newDispatch(ifaces []catalog.Interface) *Dispatch {
	t := &Dispatch{codes: MethodCodes(ifaces)}
	t.methods = make([]method, len(t.codes))
	for i := range ifaces {
		spec := &ifaces[i]
		t.methods[t.codes[spec.Method]-1] = method{name: spec.Method, behaviour: BehaviourRetain, spec: spec}
		un := UnregisterPrefix + spec.Method
		t.methods[t.codes[un]-1] = method{name: un, behaviour: BehaviourPlain, unregisterFor: spec.Method}
	}
	for _, in := range InnocentMethods {
		if m := &t.methods[t.codes[in.Name]-1]; m.name == "" {
			*m = method{name: in.Name, behaviour: in.Behaviour}
		}
	}
	return t
}

// CodeFor returns the transaction code of method on the named (catalogued)
// service.
func CodeFor(serviceName, method string) (binder.TxCode, bool) {
	c, ok := dispatchFor(serviceName).codes[method]
	return c, ok
}
