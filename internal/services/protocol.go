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

// serviceCodeTables caches each service's MethodCodes table (service
// name → map[string]binder.TxCode), built on a service's first lookup and
// shared read-only by every client and CodeFor call after it: a table is
// a pure function of the static catalog. Only the services a process
// actually talks to get a table.
var serviceCodeTables sync.Map

// serviceCodes returns the named service's shared, read-only code table.
func serviceCodes(serviceName string) map[string]binder.TxCode {
	if codes, ok := serviceCodeTables.Load(serviceName); ok {
		return codes.(map[string]binder.TxCode)
	}
	codes, _ := serviceCodeTables.LoadOrStore(serviceName, MethodCodes(catalog.InterfacesForService(serviceName)))
	return codes.(map[string]binder.TxCode)
}

// CodeFor returns the transaction code of method on the named (catalogued)
// service.
func CodeFor(serviceName, method string) (binder.TxCode, bool) {
	c, ok := serviceCodes(serviceName)[method]
	return c, ok
}
