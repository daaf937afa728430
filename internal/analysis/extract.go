// Package analysis implements the paper's four-step JGRE analysis
// methodology (§III, Fig. 1): the IPC method extractor, the JGR entry
// extractor, the vulnerable-IPC detector (call-graph generation, risky-IPC
// detection over the four strong-binder scenarios, and the risky-IPC
// sifter with its four innocence rules plus the permission filter), and
// the dynamic JGRE verification stage that drives candidates against the
// simulated device.
package analysis

import (
	"sort"
	"strings"

	"repro/internal/code"
	"repro/internal/corpus"
)

// IPCSource says how an IPC method was discovered (§III-A's two paths).
type IPCSource int

const (
	// SourceServiceManager: the owning class is registered with the
	// ServiceManager (system services).
	SourceServiceManager IPCSource = iota + 1
	// SourceBaseClass: the method is exposed through a service base
	// class whose asBinder() returns an AIDL stub (app services).
	SourceBaseClass
)

// String names the source.
func (s IPCSource) String() string {
	switch s {
	case SourceServiceManager:
		return "servicemanager"
	case SourceBaseClass:
		return "base-class"
	default:
		return "unknown"
	}
}

// IPCMethod is one extracted IPC entry point.
type IPCMethod struct {
	// Service is the registry name for system services, or the concrete
	// implementing class for app services.
	Service string
	// Class is the class whose (possibly inherited) method implements
	// the call.
	Class string
	// Method is the resolved implementation. Nil only for native
	// services, whose methods are not modelled in Java.
	Method *code.Method
	Source IPCSource
	// Native marks interfaces of native system services.
	Native bool
}

// FullName returns "service.method".
func (m IPCMethod) FullName() string {
	if m.Method == nil {
		return m.Service + ".<native>"
	}
	return m.Service + "." + m.Method.Name
}

// ExtractResult is the output of the IPC method extractor.
type ExtractResult struct {
	Methods []IPCMethod
	// Registrations lists the discovered service registrations,
	// including the native ones.
	Registrations []code.ServiceRegistration
}

// SystemServiceCount returns the number of distinct registered services.
func (r ExtractResult) SystemServiceCount() int {
	seen := make(map[string]bool)
	for _, reg := range r.Registrations {
		seen[reg.ServiceName] = true
	}
	return len(seen)
}

// NativeServiceCount returns the number of native registrations.
func (r ExtractResult) NativeServiceCount() int {
	n := 0
	for _, reg := range r.Registrations {
		if reg.Native {
			n++
		}
	}
	return n
}

// ExtractIPCMethods runs step 1 of the methodology over the program:
// find every ServiceManager registration (Java and native), mark the
// registered classes' AIDL-declared methods as IPC methods, and find the
// app-side IPC surfaces through base service classes' asBinder stubs.
func ExtractIPCMethods(p *code.Program) ExtractResult {
	var res ExtractResult

	// --- Registrations via addService / publishBinderService.
	regByClass := make(map[string]string) // impl class → service name
	for _, className := range p.ClassNames() {
		for _, m := range p.Classes[className].Methods {
			for _, cs := range m.Calls {
				if cs.Callee != corpus.ServiceManagerAdd && cs.Callee != corpus.PublishBinderSvc {
					continue
				}
				if cs.ClassArg == "" || cs.StringArg == "" {
					continue
				}
				regByClass[cs.ClassArg] = cs.StringArg
				res.Registrations = append(res.Registrations, code.ServiceRegistration{
					ServiceName: cs.StringArg, StubClass: cs.ClassArg,
				})
			}
		}
	}
	// --- Native registrations via ServiceManager::addService.
	var nativeNames []string
	//maporder:sorted below
	for name := range p.Natives {
		nativeNames = append(nativeNames, name)
	}
	sort.Strings(nativeNames)
	for _, name := range nativeNames {
		f := p.Natives[name]
		if f.RegistersService == "" {
			continue
		}
		res.Registrations = append(res.Registrations, code.ServiceRegistration{
			ServiceName: f.RegistersService, StubClass: f.RegistersClass, Native: true,
		})
		res.Methods = append(res.Methods, IPCMethod{
			Service: f.RegistersService, Class: f.RegistersClass,
			Source: SourceServiceManager, Native: true,
		})
	}

	// --- IPC methods of registered Java services: methods overriding an
	// AIDL interface declaration.
	implClasses := make([]string, 0, len(regByClass))
	//maporder:sorted below
	for cls := range regByClass {
		implClasses = append(implClasses, cls)
	}
	sort.Strings(implClasses)
	for _, cls := range implClasses {
		svcName := regByClass[cls]
		for _, m := range aidlMethodsOf(p, cls) {
			res.Methods = append(res.Methods, IPCMethod{
				Service: svcName, Class: cls, Method: m, Source: SourceServiceManager,
			})
		}
	}

	// --- App services: classes whose super chain carries an asBinder()
	// stub (service base classes, §III-A's second discovery path).
	for _, className := range p.ClassNames() {
		cls := p.Classes[className]
		if cls.Abstract || cls.AIDLGenerated {
			continue
		}
		stub := asBinderStubOf(p, className)
		if stub == "" {
			continue
		}
		for _, ifaceName := range p.Classes[stub].Implements {
			iface, ok := p.Interfaces[ifaceName]
			if !ok {
				continue
			}
			for _, methodName := range iface.Methods {
				impl := resolveImpl(p, className, methodName)
				if impl == nil {
					continue
				}
				res.Methods = append(res.Methods, IPCMethod{
					Service: className, Class: className, Method: impl, Source: SourceBaseClass,
				})
			}
		}
	}

	sort.Slice(res.Methods, func(i, j int) bool { return res.Methods[i].FullName() < res.Methods[j].FullName() })
	return res
}

// aidlMethodsOf returns the methods of cls (or its supers) overriding a
// declaration of any AIDL interface cls implements.
func aidlMethodsOf(p *code.Program, cls string) []*code.Method {
	declared := make(map[string]bool)
	chain := append([]string{cls}, p.SuperChain(cls)...)
	for _, c := range chain {
		cc, ok := p.Classes[c]
		if !ok {
			continue
		}
		for _, ifaceName := range cc.Implements {
			if iface, ok := p.Interfaces[ifaceName]; ok {
				for _, m := range iface.Methods {
					declared[m] = true
				}
			}
		}
	}
	var names []string
	//maporder:sorted below
	for n := range declared {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*code.Method
	for _, n := range names {
		if impl := resolveImpl(p, cls, n); impl != nil {
			out = append(out, impl)
		}
	}
	return out
}

// asBinderStubOf walks the super chain looking for an AsBinderReturns
// declaration and returns the stub class name.
func asBinderStubOf(p *code.Program, cls string) string {
	chain := append([]string{cls}, p.SuperChain(cls)...)
	for _, c := range chain {
		if cc, ok := p.Classes[c]; ok && cc.AsBinderReturns != "" {
			if _, ok := p.Classes[cc.AsBinderReturns]; ok {
				return cc.AsBinderReturns
			}
		}
	}
	return ""
}

// resolveImpl finds the implementation of methodName on cls, searching the
// super chain for inherited defaults (how PicoService inherits
// TextToSpeechService.setCallback).
func resolveImpl(p *code.Program, cls, methodName string) *code.Method {
	chain := append([]string{cls}, p.SuperChain(cls)...)
	for _, c := range chain {
		if m := p.Method(code.MakeMethodID(c, methodName)); m != nil && !m.Abstract {
			return m
		}
	}
	return nil
}

// JGREntries is the output of the JGR entry extractor (step 2).
type JGREntries struct {
	// NativeSummary is the §III-B1 funnel over the native call graph.
	NativeSummary code.NativePathSummary
	// ExploitableRoots are JNI-entry native functions with at least one
	// non-init path into the JGR table.
	ExploitableRoots []string
	// JavaEntries are the Java methods whose registered native
	// implementation is an exploitable root — the set the detector looks
	// for in IPC call graphs.
	JavaEntries map[code.MethodID]bool
}

// ExtractJGREntries runs step 2: count native paths into
// IndirectReferenceTable::Add, filter the init-only ones, and map the
// surviving roots back to Java methods through the JNI registrations.
func ExtractJGREntries(p *code.Program) JGREntries {
	res := JGREntries{JavaEntries: make(map[code.MethodID]bool)}
	res.NativeSummary = p.SummarizeNativePaths(corpus.AddTarget)
	//maporder:sorted below
	for root, n := range res.NativeSummary.ByRoot {
		if n > 0 && p.Natives[root].JNIEntry && !p.Natives[root].InitOnly {
			res.ExploitableRoots = append(res.ExploitableRoots, root)
		}
	}
	sort.Strings(res.ExploitableRoots)
	exploitable := make(map[string]bool, len(res.ExploitableRoots))
	for _, r := range res.ExploitableRoots {
		exploitable[r] = true
	}
	for _, reg := range p.JNI {
		if exploitable[reg.NativeFunc] {
			res.JavaEntries[code.MakeMethodID(reg.JavaClass, reg.JavaMethod)] = true
		}
	}
	return res
}

// IsParcelBinderEntry reports whether a Java JGR entry is one of the two
// special Parcel methods that never appear in service call graphs because
// the Binder framework invokes them during onTransact marshalling
// (§III-C2).
func IsParcelBinderEntry(id code.MethodID) bool {
	s := string(id)
	return strings.HasSuffix(s, "#nativeReadStrongBinder") || strings.HasSuffix(s, "#nativeWriteStrongBinder")
}
