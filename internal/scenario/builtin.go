package scenario

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
)

// expScale converts the registry's Scale to the experiments package's.
func expScale(s Scale) experiments.Scale {
	if s == Full {
		return experiments.Full
	}
	return experiments.Quick
}

// HeadlineSummary is the headline scenario's envelope payload: the §IV
// funnel plus the dynamic stage's verdicts, without the multi-megabyte
// program model the pipeline result drags along.
type HeadlineSummary struct {
	Funnel           analysis.Funnel
	ZeroPermServices int
	Confirmed        []analysis.Finding
	Rejected         []analysis.Rejection
}

// Scenario groups.
const (
	GroupAnalysis  = "analysis"
	GroupAttack    = "attack"
	GroupBaseline  = "baseline"
	GroupDefense   = "defense"
	GroupExtension = "extension"
)

// rowCount is the Shards implementation for slice-valued results.
func rowCount[T any](result any) int {
	rows, _ := result.([]T)
	return len(rows)
}

func init() {
	// --- analysis: the §III/§IV pipeline and the paper's tables.
	Register(Scenario{
		Name:           "headline",
		Group:          GroupAnalysis,
		Description:    "four-step pipeline over the synthesized corpus; §IV headline numbers (54 interfaces, 32 services)",
		Parallelizable: true,
		Slow:           true,
		Run: func(ctx context.Context, p Params) (any, error) {
			res, err := experiments.Headline(ctx, expScale(p.Scale), p.Workers)
			if err != nil {
				return nil, err
			}
			return &HeadlineSummary{
				Funnel:           res.Funnel,
				ZeroPermServices: res.ZeroPermServices,
				Confirmed:        res.Pipeline.Verify.Confirmed,
				Rejected:         res.Pipeline.Verify.Rejected,
			}, nil
		},
		Shards: func(result any) int {
			s, _ := result.(*HeadlineSummary)
			if s == nil {
				return 0
			}
			return len(s.Confirmed) + len(s.Rejected)
		},
	})
	Register(Scenario{
		Name:        "audit-static",
		Group:       GroupAnalysis,
		Description: "static stages only (extract, JGR entries, detect, sift); the candidate funnel without a device",
		Run: func(ctx context.Context, p Params) (any, error) {
			res, err := core.Audit(core.AuditConfig{ThirdPartyApps: catalog.ThirdPartyScanCount})
			if err != nil {
				return nil, err
			}
			return res.Funnel(), nil
		},
	})
	tables := []struct {
		name, description string
		format            func() string
	}{
		{"table-i", "Table I: unprotected vulnerable IPC interfaces with their permissions", core.FormatTableI},
		{"table-ii", "Table II: interfaces protected only by service helper classes", core.FormatTableII},
		{"table-iii", "Table III: interfaces with per-process constraints", core.FormatTableIII},
		{"table-iv", "Table IV: vulnerable prebuilt core apps", core.FormatTableIV},
		{"table-v", "Table V: vulnerable third-party apps", core.FormatTableV},
	}
	for _, tb := range tables {
		format := tb.format
		Register(Scenario{
			Name:        tb.name,
			Group:       GroupAnalysis,
			Description: tb.description,
			Run: func(ctx context.Context, p Params) (any, error) {
				return format(), nil
			},
		})
	}

	// --- attack: the exhaustion dynamics (Fig. 3, 5, 6) and bypasses.
	Register(Scenario{
		Name:           "fig3",
		Group:          GroupAttack,
		Description:    "Fig. 3: per-interface JGR growth curves to exhaustion (Filter restricts the interface set)",
		Parallelizable: true,
		Slow:           true,
		Filterable:     true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Fig3AttackCurves(ctx, expScale(p.Scale), p.Filter, p.Workers)
		},
		Shards: rowCount[experiments.AttackCurve],
	})
	Register(Scenario{
		Name:        "fig5",
		Group:       GroupAttack,
		Description: "Fig. 5: execution-time growth of telephony.registry.listenForSubscriber under attack",
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Fig5ExecutionGrowth(expScale(p.Scale))
		},
	})
	Register(Scenario{
		Name:           "fig6",
		Group:          GroupAttack,
		Description:    "Fig. 6: per-interface execution-time distributions (min/p50/p90/max)",
		Parallelizable: true,
		Slow:           true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Fig6LatencyCDF(ctx, expScale(p.Scale), p.Workers)
		},
		Shards: func(result any) int {
			res, _ := result.(*experiments.Fig6Result)
			if res == nil {
				return 0
			}
			return len(res.PerInterface)
		},
	})
	Register(Scenario{
		Name:        "obs2",
		Group:       GroupAttack,
		Description: "Observation 2: per-interface IPC→JGR delay = Delay + Δ, and the fleet-wide mean Δ",
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Observation2(expScale(p.Scale))
		},
	})
	Register(Scenario{
		Name:           "bypass",
		Group:          GroupAttack,
		Description:    "Table II/III bypass study: helper guards and per-process constraints vs. direct binder access",
		Parallelizable: true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.ProtectedBypass(ctx, p.Workers)
		},
		Shards: rowCount[experiments.BypassRow],
	})

	// --- baseline: the benign workload (Fig. 4, Observation 1).
	Register(Scenario{
		Name:        "fig4",
		Group:       GroupBaseline,
		Description: "Fig. 4: system_server JGR size and process count under the benign top-app workload",
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Fig4BenignBaseline(expScale(p.Scale))
		},
	})

	// --- defense: the §V defender evaluation.
	Register(Scenario{
		Name:           "fig8",
		Group:          GroupDefense,
		Description:    "Fig. 8: per-vulnerability suspicious-call scores, malicious vs. top benign app",
		Parallelizable: true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Fig8SingleAttacker(ctx, expScale(p.Scale), p.Workers)
		},
		Shards: rowCount[experiments.Fig8Row],
	})
	Register(Scenario{
		Name:           "fig9",
		Group:          GroupDefense,
		Description:    "Fig. 9: colluding-apps attack, top-app scores across the Δ sweep",
		Parallelizable: true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Fig9Colluders(ctx, expScale(p.Scale), p.Workers)
		},
		Shards: func(result any) int {
			res, _ := result.(*experiments.Fig9Result)
			if res == nil {
				return 0
			}
			return len(res.Deltas)
		},
	})
	Register(Scenario{
		Name:        "fig10",
		Group:       GroupDefense,
		Description: "Fig. 10: IPC latency vs. payload, stock vs. defense framework",
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.Fig10IPCOverhead(expScale(p.Scale))
		},
	})
	Register(Scenario{
		Name:           "delays",
		Group:          GroupDefense,
		Description:    "§V-D1: per-vulnerability response delays of attack-source identification",
		Parallelizable: true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.ResponseDelays(ctx, expScale(p.Scale), p.Workers)
		},
		Shards: rowCount[experiments.DelayRow],
	})
	Register(Scenario{
		Name:           "thresholds",
		Group:          GroupDefense,
		Description:    "alarm/engage threshold ablation around the paper's 4,000/12,000",
		Parallelizable: true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.ThresholdAblation(ctx, p.Workers)
		},
		Shards: rowCount[experiments.ThresholdRow],
	})

	// --- extension: the §VI studies beyond the paper's evaluation.
	Register(Scenario{
		Name:        "multipath",
		Group:       GroupExtension,
		Description: "§VI multi-path evasion study: path smearing vs. Algorithm 1's classification",
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.MultiPathStudy(expScale(p.Scale))
		},
	})
	Register(Scenario{
		Name:        "limitations",
		Group:       GroupExtension,
		Description: "§VI covert-channel limitation study: exhaustion without binder evidence",
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.LimitationStudy(expScale(p.Scale))
		},
	})
	Register(Scenario{
		Name:           "patch",
		Group:          GroupExtension,
		Description:    "§IV-B counterfactual: a universal per-process quota, its usability cost and collusion ceiling",
		Parallelizable: true,
		Slow:           true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return experiments.PatchStudy(ctx, p.Workers)
		},
		Shards: rowCount[experiments.PatchRow],
	})
}
