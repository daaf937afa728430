// Package code defines the program model the static-analysis pipeline
// operates on: classes, methods, call edges, AIDL interface definitions,
// JNI registrations and a native-code call graph. It stands in for the
// bytecode/ELF artifacts the paper analyzes with SOOT, PScout, dex2jar and
// Doxygen (§III); internal/corpus synthesizes an AOSP-6.0.1-like program
// in this model, and internal/analysis recovers the vulnerability ground
// truth from it.
package code

import (
	"fmt"
	"sort"
)

// ParamType classifies a method parameter as the risky-IPC detector needs
// (§III-C2 enumerates the four strong-binder transmission scenarios).
type ParamType int

const (
	// ParamOther is any non-binder-carrying type.
	ParamOther ParamType = iota
	// ParamBinder is android.os.IBinder or a subclass of Binder.
	ParamBinder
	// ParamInterface is an IInterface (AIDL callback) type.
	ParamInterface
	// ParamObjectWithBinder is an object type containing a Binder or
	// IInterface field.
	ParamObjectWithBinder
	// ParamBinderArray is an array of Binder/IInterface.
	ParamBinderArray
	// ParamList is a java.util.List whose element type is erased; only
	// the manual-annotation table can tell whether it carries binders
	// (§III-C2: "due to Type Erasure, we have to manually check").
	ParamList
)

// String names the parameter classification.
func (p ParamType) String() string {
	switch p {
	case ParamOther:
		return "other"
	case ParamBinder:
		return "Binder"
	case ParamInterface:
		return "IInterface"
	case ParamObjectWithBinder:
		return "object-with-binder"
	case ParamBinderArray:
		return "binder-array"
	case ParamList:
		return "List<?>"
	default:
		return fmt.Sprintf("ParamType(%d)", int(p))
	}
}

// CarriesBinder reports whether the parameter transmits a strong binder
// (Lists are resolved separately via manual annotations).
func (p ParamType) CarriesBinder() bool {
	switch p {
	case ParamBinder, ParamInterface, ParamObjectWithBinder, ParamBinderArray:
		return true
	default:
		return false
	}
}

// SinkKind classifies where a binder-typed parameter flows inside a
// method body — the facts the risky-IPC sifter's four rules key on
// (§III-C3).
type SinkKind int

const (
	// SinkNone: the binder is used only inside the method (rule 2).
	SinkNone SinkKind = iota
	// SinkThread: only Thread.nativeCreate is involved (rule 1).
	SinkThread
	// SinkReadOnlyQuery: the binder keys a read-only Map/Set lookup
	// (rule 3).
	SinkReadOnlyQuery
	// SinkMemberField: the binder is assigned to a single member field,
	// revoking the previous value (rule 4).
	SinkMemberField
	// SinkCollection: the binder is added to a growing collection
	// (List/Map/RemoteCallbackList) — the vulnerable pattern.
	SinkCollection
)

// String names the sink.
func (s SinkKind) String() string {
	switch s {
	case SinkNone:
		return "local-use"
	case SinkThread:
		return "thread-create"
	case SinkReadOnlyQuery:
		return "read-only-query"
	case SinkMemberField:
		return "member-field"
	case SinkCollection:
		return "collection"
	default:
		return fmt.Sprintf("SinkKind(%d)", int(s))
	}
}

// BinderFlow records how one binder-carrying parameter is used.
type BinderFlow struct {
	Param int
	Sink  SinkKind
}

// MethodID uniquely names a method as "Class#method".
type MethodID string

// MakeMethodID builds a MethodID.
func MakeMethodID(class, method string) MethodID {
	return MethodID(class + "#" + method)
}

// Split returns the class and method parts.
func (id MethodID) Split() (class, method string) {
	s := string(id)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '#' {
			return s[:i], s[i+1:]
		}
	}
	return "", s
}

// CallSite is one outgoing call edge, optionally carrying a class-constant
// argument (how addService registration sites name the service class).
type CallSite struct {
	Callee MethodID
	// ClassArg is the class constant passed at the site (e.g. the stub
	// class registered with ServiceManager), "" if none.
	ClassArg string
	// StringArg is a string constant passed (e.g. the service name).
	StringArg string
	// HandlerClass, when set, marks a Handler.sendMessage-style indirect
	// dispatch: control continues at HandlerClass#handleMessage. PScout
	// resolves these; our detector follows them explicitly.
	HandlerClass string
}

// Method is one Java method in the program model.
type Method struct {
	ID     MethodID
	Class  string
	Name   string
	Params []ParamType
	// Abstract methods have no body (interface/AIDL declarations).
	Abstract bool
	// NativeDecl marks `native` methods whose implementation is bound
	// via registerNativeMethods.
	NativeDecl bool
	Calls      []CallSite
	Flows      []BinderFlow
}

// Class is one Java class.
type Class struct {
	Name string
	// Super is the superclass name ("" for java.lang.Object).
	Super string
	// Implements lists implemented interface class names.
	Implements []string
	// Abstract marks abstract (base/service-template) classes.
	Abstract bool
	// AIDLGenerated marks Stub classes emitted by the AIDL compiler.
	AIDLGenerated bool
	// AsBinderReturns names the class of the IBinder returned by this
	// class's asBinder() — how the extractor finds app-extendable base
	// service classes (§III-A).
	AsBinderReturns string
	Methods         []*Method
}

// Interface is an AIDL interface definition: name plus declared methods.
type Interface struct {
	Name    string
	Methods []string
}

// NativeFunc is a node of the native call graph.
type NativeFunc struct {
	Name string
	// JNIEntry marks functions that are JNI method implementations —
	// the roots the JGR entry extractor searches from.
	JNIEntry bool
	// InitOnly marks functions reachable only during runtime
	// initialization (class caching etc.); paths through them are
	// filtered out (§III-B1 filters 67 of 147).
	InitOnly bool
	// RegistersService / RegistersClass mark native call sites of
	// ServiceManager::addService — how the extractor discovers the five
	// native system services (§III-A).
	RegistersService string
	RegistersClass   string
	Calls            []string
}

// JNIRegistration maps a Java native method to its native function, as
// AndroidRuntime::registerNativeMethods records (§III-B2).
type JNIRegistration struct {
	JavaClass  string
	JavaMethod string
	NativeFunc string
}

// ServiceRegistration is a discovered ServiceManager registration.
type ServiceRegistration struct {
	ServiceName string
	StubClass   string
	Native      bool
}

// Program is a complete analyzable code base.
type Program struct {
	Classes    map[string]*Class
	Interfaces map[string]*Interface
	Natives    map[string]*NativeFunc
	JNI        []JNIRegistration
	// PermissionMap is the PScout-style map from "Class#method" to the
	// required permission name ("" = none) (§III-C3 sifts by it).
	PermissionMap map[MethodID]string
	// ListCarriesBinder is the manual-annotation table resolving
	// type-erased List parameters (§III-C2).
	ListCarriesBinder map[MethodID]bool
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		Classes:           make(map[string]*Class),
		Interfaces:        make(map[string]*Interface),
		Natives:           make(map[string]*NativeFunc),
		PermissionMap:     make(map[MethodID]string),
		ListCarriesBinder: make(map[MethodID]bool),
	}
}

// AddClass inserts a class; it panics on duplicates (corpus bugs).
func (p *Program) AddClass(c *Class) {
	if _, ok := p.Classes[c.Name]; ok {
		panic(fmt.Sprintf("code: duplicate class %s", c.Name))
	}
	p.Classes[c.Name] = c
}

// AddInterface inserts an AIDL interface definition.
func (p *Program) AddInterface(i *Interface) {
	if _, ok := p.Interfaces[i.Name]; ok {
		panic(fmt.Sprintf("code: duplicate interface %s", i.Name))
	}
	p.Interfaces[i.Name] = i
}

// AddNative inserts a native function.
func (p *Program) AddNative(f *NativeFunc) {
	if _, ok := p.Natives[f.Name]; ok {
		panic(fmt.Sprintf("code: duplicate native %s", f.Name))
	}
	p.Natives[f.Name] = f
}

// Method resolves a MethodID.
func (p *Program) Method(id MethodID) *Method {
	class, name := id.Split()
	c, ok := p.Classes[class]
	if !ok {
		return nil
	}
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// MethodCount returns the total number of (non-abstract) methods.
func (p *Program) MethodCount() int {
	n := 0
	//maporder:free counts
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if !m.Abstract {
				n++
			}
		}
	}
	return n
}

// ClassNames returns all class names, sorted (stable iteration for the
// analysis passes).
func (p *Program) ClassNames() []string {
	out := make([]string, 0, len(p.Classes))
	//maporder:sorted below
	for n := range p.Classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ImplementsTransitively reports whether class implements the interface
// directly or through its superclass chain.
func (p *Program) ImplementsTransitively(class, iface string) bool {
	for class != "" {
		c, ok := p.Classes[class]
		if !ok {
			return false
		}
		for _, i := range c.Implements {
			if i == iface {
				return true
			}
		}
		class = c.Super
	}
	return false
}

// SuperChain returns the superclass chain of a class (nearest first).
func (p *Program) SuperChain(class string) []string {
	var out []string
	c, ok := p.Classes[class]
	for ok && c.Super != "" {
		out = append(out, c.Super)
		c, ok = p.Classes[c.Super]
	}
	return out
}
