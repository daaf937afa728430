package analysis

import (
	"sort"

	"repro/internal/code"
)

// RiskReason says why the detector flagged an IPC method.
type RiskReason int

const (
	// RiskCallGraph: the method's call graph reaches a Java JGR entry.
	RiskCallGraph RiskReason = 1 << iota
	// RiskBinderParam: the method receives a strong binder through one
	// of the four §III-C2 transmission scenarios.
	RiskBinderParam
)

// RiskyMethod is a detector hit.
type RiskyMethod struct {
	IPC     IPCMethod
	Reasons RiskReason
	// EntriesReached lists the Java JGR entries found in the call graph.
	EntriesReached []code.MethodID
	// BinderParams lists parameter indices that transmit binders.
	BinderParams []int
	// Permission is the PScout-map requirement for this method ("" if
	// none).
	Permission string
}

// DetectRisky runs step 3a (§III-C1/C2): build each IPC method's call
// graph (following message-handler indirection), mark methods whose graph
// contains a Java JGR entry, and independently mark methods that receive
// strong binders as parameters — covering the Parcel read/write entries
// that never appear in service call graphs.
func DetectRisky(p *code.Program, ipcs []IPCMethod, entries JGREntries) []RiskyMethod {
	var out []RiskyMethod
	for _, ipc := range ipcs {
		if ipc.Method == nil {
			// Native services: their Java-side surface is empty; the
			// paper analyzes them separately and found no JGRE issues.
			continue
		}
		var rm RiskyMethod
		rm.IPC = ipc
		rm.Permission = p.PermissionMap[ipc.Method.ID]

		reach := p.ReachableMethods(ipc.Method.ID)
		var reached []code.MethodID
		//maporder:sorted below
		for id := range entries.JavaEntries {
			if IsParcelBinderEntry(id) {
				continue
			}
			if reach[id] {
				reached = append(reached, id)
			}
		}
		sort.Slice(reached, func(i, j int) bool { return reached[i] < reached[j] })
		if len(reached) > 0 {
			rm.Reasons |= RiskCallGraph
			rm.EntriesReached = reached
		}

		for i, pt := range ipc.Method.Params {
			carries := pt.CarriesBinder()
			if pt == code.ParamList {
				// Type erasure hides the element type; the manual
				// annotation table resolves it (§III-C2).
				carries = p.ListCarriesBinder[ipc.Method.ID]
			}
			if carries {
				rm.Reasons |= RiskBinderParam
				rm.BinderParams = append(rm.BinderParams, i)
			}
		}

		if rm.Reasons != 0 {
			out = append(out, rm)
		}
	}
	return out
}
