package analysis

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/code"
	"repro/internal/device"
	"repro/internal/permissions"
)

// PipelineResult carries every stage's output plus the funnel numbers the
// paper reports.
type PipelineResult struct {
	Extract ExtractResult
	Entries JGREntries
	Risky   []RiskyMethod
	Sift    SiftResult
	// Verify is nil when the pipeline ran statically (no device).
	Verify *VerifyResult
}

// Funnel summarizes the pipeline stages numerically.
type Funnel struct {
	SystemServices     int
	NativeServices     int
	IPCMethods         int
	NativePaths        int
	InitOnlyPaths      int
	ReachablePaths     int
	JavaJGREntries     int
	RiskyMethods       int
	SiftedMethods      int
	Candidates         int
	Confirmed          int
	RejectedDynamic    int
	VulnerableServices int
}

// Funnel computes the summary.
func (r *PipelineResult) Funnel() Funnel {
	f := Funnel{
		SystemServices: r.Extract.SystemServiceCount(),
		NativeServices: r.Extract.NativeServiceCount(),
		IPCMethods:     len(r.Extract.Methods),
		NativePaths:    r.Entries.NativeSummary.TotalPaths,
		InitOnlyPaths:  r.Entries.NativeSummary.InitOnlyPaths,
		ReachablePaths: r.Entries.NativeSummary.ReachablePaths(),
		JavaJGREntries: len(r.Entries.JavaEntries),
		RiskyMethods:   len(r.Risky),
		SiftedMethods:  len(r.Sift.Sifted),
		Candidates:     len(r.Sift.Kept),
	}
	if r.Verify != nil {
		f.Confirmed = len(r.Verify.Confirmed)
		f.RejectedDynamic = len(r.Verify.Rejected)
		seen := make(map[string]bool)
		for _, c := range r.Verify.Confirmed {
			if c.Source == SourceServiceManager {
				seen[c.Service] = true
			}
		}
		f.VulnerableServices = len(seen)
	}
	return f
}

// CatalogObtainable builds the default permission policy from the
// catalog's AOSP 6.0.1 permission levels: normal and dangerous
// permissions are obtainable by a third-party app, anything undefined is
// treated as signature-gated.
func CatalogObtainable() func(string) bool {
	m := permissions.NewManager(catalog.PermissionLevels)
	return func(perm string) bool {
		return m.ObtainableByApp(permissions.Permission(perm))
	}
}

// RunStatic executes steps 1–3 (extract, JGR entries, detect, sift) over
// the program.
func RunStatic(p *code.Program, obtainable func(string) bool) *PipelineResult {
	if obtainable == nil {
		obtainable = CatalogObtainable()
	}
	res := &PipelineResult{}
	res.Extract = ExtractIPCMethods(p)
	res.Entries = ExtractJGREntries(p)
	res.Risky = DetectRisky(p, res.Extract.Methods, res.Entries)
	res.Sift = Sift(p, res.Risky, obtainable)
	return res
}

// Run executes the full four-step pipeline: the static stages over the
// program, then dynamic verification of every kept candidate against the
// device. vcfg.Workers sizes the dynamic stage's verification pool;
// cancelling ctx aborts the sweep.
func Run(ctx context.Context, p *code.Program, dev *device.Device, vcfg VerifyConfig) (*PipelineResult, error) {
	res := RunStatic(p, nil)
	verify, err := Verify(ctx, dev, res.Sift.Kept, vcfg)
	if err != nil {
		return nil, err
	}
	res.Verify = verify
	return res, nil
}
