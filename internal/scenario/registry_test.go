package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestBuiltinCoverage pins the registry's surface: every table, figure
// and study of the evaluation is registered, groups are complete, and
// the sweep-style scenarios advertise their parallel engine.
func TestBuiltinCoverage(t *testing.T) {
	all := List()
	if len(all) < 20 {
		t.Fatalf("registered scenarios = %d, want ≥ 20", len(all))
	}
	want := []string{
		"headline", "audit-static", "table-i", "table-ii", "table-iii", "table-iv", "table-v",
		"fig3", "fig5", "fig6", "obs2", "bypass",
		"fig4",
		"fig8", "fig9", "fig10", "delays", "thresholds",
		"multipath", "limitations", "patch",
	}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("scenario %q not registered", name)
		}
	}
	groups := make(map[string]int)
	parallel := 0
	for _, s := range all {
		groups[s.Group]++
		if s.Parallelizable {
			parallel++
			if s.Shards == nil {
				t.Errorf("%s: parallelizable but no Shards", s.Name)
			}
		}
		if s.Description == "" {
			t.Errorf("%s: empty description", s.Name)
		}
	}
	for _, g := range []string{GroupAnalysis, GroupAttack, GroupBaseline, GroupDefense, GroupExtension} {
		if groups[g] == 0 {
			t.Errorf("group %s has no scenarios", g)
		}
	}
	if parallel < 9 {
		t.Errorf("parallelizable scenarios = %d, want ≥ 9", parallel)
	}
}

// TestListSorted: List returns a stable group-then-name order, so front
// ends (jgre-run list, jgre-bench) enumerate deterministically.
func TestListSorted(t *testing.T) {
	all := List()
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Group > b.Group || (a.Group == b.Group && a.Name >= b.Name) {
			t.Errorf("List not sorted at %d: %s/%s before %s/%s", i, a.Group, a.Name, b.Group, b.Name)
		}
	}
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	mustPanic := func(name string, s Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	run := func(ctx context.Context, p Params) (any, error) { return nil, nil }
	mustPanic("duplicate", Scenario{Name: "fig3", Group: "attack", Run: run})
	mustPanic("no name", Scenario{Group: "attack", Run: run})
	mustPanic("no run", Scenario{Name: "x-no-run", Group: "attack"})
}

func TestExecuteUnknownScenario(t *testing.T) {
	if _, err := Execute(context.Background(), "no-such-scenario", Params{}); err == nil {
		t.Fatal("no error for unknown scenario")
	}
}

func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"quick": Quick, "": Quick, "full": Full} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("Scale.String mismatch")
	}
}

// TestEnvelopeShape runs a cheap scenario end to end and checks the
// shared envelope: identity fields, wall time, and the canonical
// rendering that zeroes the run metadata.
func TestEnvelopeShape(t *testing.T) {
	env, err := Execute(context.Background(), "table-i", Params{Scale: Quick, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if env.Scenario != "table-i" || env.Group != GroupAnalysis || env.Scale != "quick" ||
		env.Workers != 3 {
		t.Fatalf("envelope identity wrong: %+v", env)
	}
	text, ok := env.Result.(string)
	if !ok || !strings.Contains(text, "Table I") {
		t.Fatalf("table-i result = %T", env.Result)
	}

	out, err := env.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenario", "group", "scale", "workers", "wall_ms", "result"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("envelope JSON missing %q", key)
		}
	}

	canon, err := env.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var c Envelope
	if err := json.Unmarshal(canon, &c); err != nil {
		t.Fatal(err)
	}
	if c.WallMS != 0 || c.Workers != 0 {
		t.Errorf("canonical JSON kept run metadata: wall=%v workers=%d", c.WallMS, c.Workers)
	}
	if c.Scenario != "table-i" || c.Group != GroupAnalysis {
		t.Errorf("canonical JSON lost identity: %+v", c)
	}
}

// TestFilter: a filter reaches only the scenarios that declare they read
// it. fig3 runs just the named interfaces and records the filter in its
// envelope; every other scenario rejects a filter by name instead of
// silently running its full sweep.
func TestFilter(t *testing.T) {
	ctx := context.Background()
	for _, s := range List() {
		if s.Filterable {
			continue
		}
		_, err := s.Execute(ctx, Params{Filter: []string{"nosuch"}})
		if err == nil || !strings.Contains(err.Error(), s.Name) {
			t.Errorf("%s with a filter: err = %v, want an error naming the scenario", s.Name, err)
		}
	}

	const iface = "audio.startWatchingRoutes"
	env, err := Execute(ctx, "fig3", Params{Scale: Quick, Filter: []string{iface}})
	if err != nil {
		t.Fatal(err)
	}
	curves, _ := env.Result.([]experiments.AttackCurve)
	if len(curves) != 1 || curves[0].Interface != iface {
		t.Fatalf("fig3 filtered to %s ran %d curves: %+v", iface, len(curves), curves)
	}
	out, err := env.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct{ Filter []string }
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Filter) != 1 || decoded.Filter[0] != iface {
		t.Errorf("envelope filter = %q, want [%s]", decoded.Filter, iface)
	}

	if _, err := Execute(ctx, "fig3", Params{Scale: Quick, Filter: []string{"nosuch.method"}}); err == nil {
		t.Error("fig3 accepted an unknown interface")
	}
}
