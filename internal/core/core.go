// Package core is the top-level API of the JGRE toolkit's analysis
// half — the paper's methodology assembled into two entry points:
//
//   - Audit: the four-step JGRE analysis (paper §III) over a program
//     corpus, with optional dynamic verification on a simulated device.
//   - Report rendering for every table the paper prints (Tables I–V) and
//     the pipeline funnel.
//
// A defended device (paper §V) is device.Boot followed by defense.New.
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/corpus"
	"repro/internal/device"
)

// AuditConfig parameterizes Audit.
type AuditConfig struct {
	// ThirdPartyApps sizes the synthetic Google Play population scanned
	// for Table V; 0 skips the third-party study.
	ThirdPartyApps int
	// Dynamic enables the verification stage against a freshly booted
	// device (step 4 of the methodology). Static-only audits are faster
	// but report candidates, not confirmed vulnerabilities.
	Dynamic bool
	// VerifyCalls is the per-candidate invocation count for the dynamic
	// stage (0 = 300).
	VerifyCalls int
	// Seed drives the device boot used for verification.
	Seed int64
	// Workers sizes the dynamic stage's verification pool (0 = one per
	// CPU, 1 = sequential); the result is identical either way.
	Workers int
}

// Audit runs the paper's analysis methodology end to end and returns the
// pipeline result.
func Audit(cfg AuditConfig) (*analysis.PipelineResult, error) {
	c := corpus.Generate(corpus.Options{ThirdPartyApps: cfg.ThirdPartyApps})
	if !cfg.Dynamic {
		return analysis.RunStatic(c.Program, nil), nil
	}
	dev, err := device.Boot(device.Config{
		Seed:                  cfg.Seed,
		InstallThirdPartyApps: cfg.ThirdPartyApps > 0,
	})
	if err != nil {
		return nil, err
	}
	return analysis.Run(context.Background(), c.Program, dev, analysis.VerifyConfig{Calls: cfg.VerifyCalls, Workers: cfg.Workers})
}

// FormatFunnel renders the pipeline funnel (§III/§IV summary).
func FormatFunnel(f analysis.Funnel) string {
	s := "JGRE analysis funnel (paper §III–§IV)\n"
	s += fmt.Sprintf("  system services registered ............ %d\n", f.SystemServices)
	s += fmt.Sprintf("    implemented in native code .......... %d\n", f.NativeServices)
	s += fmt.Sprintf("  IPC methods extracted ................. %d\n", f.IPCMethods)
	s += fmt.Sprintf("  native paths to IndirectReferenceTable::Add %d\n", f.NativePaths)
	s += fmt.Sprintf("    init-only, filtered ................. %d\n", f.InitOnlyPaths)
	s += fmt.Sprintf("    exploitable ......................... %d\n", f.ReachablePaths)
	s += fmt.Sprintf("  Java JGR entry methods ................ %d\n", f.JavaJGREntries)
	s += fmt.Sprintf("  risky IPC methods (detector) .......... %d\n", f.RiskyMethods)
	s += fmt.Sprintf("  sifted as innocent/unreachable ........ %d\n", f.SiftedMethods)
	s += fmt.Sprintf("  candidates to dynamic verification .... %d\n", f.Candidates)
	if f.Confirmed > 0 || f.RejectedDynamic > 0 {
		s += fmt.Sprintf("  confirmed vulnerable .................. %d\n", f.Confirmed)
		s += fmt.Sprintf("  cleared by dynamic testing ............ %d\n", f.RejectedDynamic)
		s += fmt.Sprintf("  vulnerable system services ............ %d\n", f.VulnerableServices)
	}
	return s
}

// FormatTableI renders Table I: the unprotected vulnerable IPC interfaces
// with their required permissions.
func FormatTableI() string {
	s := "Table I: unprotected vulnerable IPC interfaces\n"
	s += fmt.Sprintf("%-22s %-45s %s\n", "SERVICE", "INTERFACE", "PERMISSION (LEVEL)")
	n := 0
	for _, row := range catalog.Interfaces() {
		if row.Protection != catalog.Unprotected {
			continue
		}
		n++
		perm := "-"
		if row.Permission != "" {
			perm = fmt.Sprintf("%s (%s)", row.Permission, row.PermLevel)
		}
		s += fmt.Sprintf("%-22s %-45s %s\n", row.Service, row.Method, perm)
	}
	s += fmt.Sprintf("total: %d interfaces\n", n)
	return s
}

// FormatTableII renders Table II: interfaces protected only by service
// helper classes.
func FormatTableII() string {
	s := "Table II: vulnerable IPC interfaces protected by service helper classes\n"
	s += fmt.Sprintf("%-14s %-22s %-35s %s\n", "SERVICE", "HELPER CLASS", "INTERFACE", "LIMIT")
	for _, row := range catalog.Interfaces() {
		if row.Protection != catalog.HelperGuard {
			continue
		}
		s += fmt.Sprintf("%-14s %-22s %-35s %d\n", row.Service, row.HelperClass, row.Method, row.GuardLimit)
	}
	s += "all of the above are bypassable by calling the binder interface directly (Code-Snippet 2)\n"
	return s
}

// FormatTableIII renders Table III: interfaces with per-process
// constraints in the service.
func FormatTableIII() string {
	s := "Table III: IPC interfaces protected by per-process constraints\n"
	s += fmt.Sprintf("%-14s %-42s %s\n", "SERVICE", "INTERFACE", "PROTECTED?")
	for _, row := range catalog.Interfaces() {
		if row.Protection != catalog.PerProcessGuard {
			continue
		}
		status := "Yes"
		if row.Bypassable {
			status = "No — " + row.BypassNote
		}
		s += fmt.Sprintf("%-14s %-42s %s\n", row.Service, row.Method, status)
	}
	return s
}

// FormatTableIV renders Table IV: vulnerable prebuilt core apps.
func FormatTableIV() string {
	s := "Table IV: vulnerable prebuilt core apps\n"
	s += fmt.Sprintf("%-12s %-28s %s\n", "APP", "CODE PATH IN AOSP", "VULNERABLE IPC METHOD")
	for _, row := range catalog.PrebuiltAppInterfaces() {
		s += fmt.Sprintf("%-12s %-28s %s\n", row.App, row.CodePath, row.Method)
	}
	return s
}

// FormatTableV renders Table V: vulnerable third-party apps.
func FormatTableV() string {
	s := "Table V: vulnerable third-party apps\n"
	s += fmt.Sprintf("%-24s %-14s %s\n", "APP", "DOWNLOADS", "VULNERABLE IPC INTERFACE")
	for _, row := range catalog.ThirdPartyAppInterfaces() {
		s += fmt.Sprintf("%-24s %-14s %s\n", row.App, row.Downloads, row.Method)
	}
	return s
}

// FormatFindings renders the dynamic stage's confirmations and
// rejections.
func FormatFindings(v *analysis.VerifyResult) string {
	if v == nil {
		return "dynamic verification not run\n"
	}
	s := fmt.Sprintf("confirmed vulnerable interfaces: %d\n", len(v.Confirmed))
	for _, f := range v.Confirmed {
		perm := ""
		if f.Permission != "" {
			perm = " [" + f.Permission + "]"
		}
		s += fmt.Sprintf("  %-60s +%.1f JGR/call%s\n", f.FullName(), f.GrowthPerCall, perm)
	}
	s += fmt.Sprintf("cleared by dynamic testing: %d\n", len(v.Rejected))
	for _, r := range v.Rejected {
		s += fmt.Sprintf("  %-60s %s\n", r.Service+"."+r.Method, r.Reason)
	}
	return s
}
