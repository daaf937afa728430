package code

import (
	"fmt"
	"sort"
)

// ReachableMethods walks the Java call graph from a root method,
// following direct call edges and Handler.sendMessage indirections
// (§III-C1: "we use PScout to parse the indirect dependency such as
// Message Handler"). It returns every reachable MethodID including the
// root.
func (p *Program) ReachableMethods(root MethodID) map[MethodID]bool {
	seen := make(map[MethodID]bool)
	stack := []MethodID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		m := p.Method(id)
		if m == nil {
			continue
		}
		for _, cs := range m.Calls {
			if !seen[cs.Callee] {
				stack = append(stack, cs.Callee)
			}
			if cs.HandlerClass != "" {
				h := MakeMethodID(cs.HandlerClass, "handleMessage")
				if !seen[h] {
					stack = append(stack, h)
				}
			}
		}
	}
	return seen
}

// NativePathCount counts the distinct simple paths in the native call
// graph from fn to target. The native graph synthesized by the corpus is
// a DAG, so memoized counting is exact; a cycle would make the count
// unbounded and panics.
func (p *Program) NativePathCount(fn, target string) int {
	memo := make(map[string]int)
	onStack := make(map[string]bool)
	var count func(name string) int
	count = func(name string) int {
		if name == target {
			return 1
		}
		if c, ok := memo[name]; ok {
			return c
		}
		if onStack[name] {
			panic(fmt.Sprintf("code: cycle through %s in native call graph", name))
		}
		f, ok := p.Natives[name]
		if !ok {
			return 0
		}
		onStack[name] = true
		total := 0
		for _, callee := range f.Calls {
			total += count(callee)
		}
		onStack[name] = false
		memo[name] = total
		return total
	}
	return count(fn)
}

// NativePathSummary aggregates the §III-B1 funnel: for every native
// function, the number of simple paths to target, split by whether the
// root is init-only.
type NativePathSummary struct {
	// TotalPaths is the number of root→target paths over all roots.
	TotalPaths int
	// InitOnlyPaths counts paths whose root is an init-only function.
	InitOnlyPaths int
	// ByRoot maps each root with ≥1 path to its path count.
	ByRoot map[string]int
}

// ReachablePaths returns TotalPaths − InitOnlyPaths.
func (s NativePathSummary) ReachablePaths() int { return s.TotalPaths - s.InitOnlyPaths }

// SummarizeNativePaths counts paths to target from every JNI-entry or
// init-only root in the native graph.
func (p *Program) SummarizeNativePaths(target string) NativePathSummary {
	sum := NativePathSummary{ByRoot: make(map[string]int)}
	var roots []string
	//maporder:sorted below
	for name, f := range p.Natives {
		if f.JNIEntry || f.InitOnly {
			roots = append(roots, name)
		}
	}
	sort.Strings(roots)
	for _, name := range roots {
		n := p.NativePathCount(name, target)
		if n == 0 {
			continue
		}
		sum.ByRoot[name] = n
		sum.TotalPaths += n
		if p.Natives[name].InitOnly {
			sum.InitOnlyPaths += n
		}
	}
	return sum
}
