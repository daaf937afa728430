// Package scenario is the experiment registry: every table, figure and
// study of the paper's evaluation registers itself here under a stable
// name, and every front end (jgre-run, the jgre-bench timing harness,
// jgre-report and the equivalence/cancellation tests) drives the same
// registry instead of maintaining its own experiment list. A scenario
// couples a Run function to the metadata the front ends need: its group,
// whether its sweep fans out over a worker pool with
// worker-count-independent results, whether it takes a filter, and how
// to count its shards.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Scale selects the experiment size. Quick shrinks the paper's
// parameters for tests and benchmarks while preserving every qualitative
// result; Full reproduces them on virtual time.
type Scale int

// Available scales.
const (
	Quick Scale = iota
	Full
)

// String returns "quick" or "full".
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// ParseScale maps the -scale flag values of jgre-run and jgre-bench to a
// Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick", "":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("scenario: unknown scale %q (want quick or full)", name)
	}
}

// Params are the shared knobs every scenario accepts. Scenarios ignore
// the fields they have no use for (most experiments pin their own boot
// seeds to stay reproducible).
type Params struct {
	Scale Scale
	// Workers sizes the sweep's worker pool (0 = one per CPU, 1 =
	// sequential). Parallelizable scenarios produce identical results
	// for any value; the rest ignore it.
	Workers int
	// Filter restricts a sweep to the named targets (fig3 takes
	// interface names like "audio.startWatchingRoutes"). Nil means the
	// full sweep. Only Filterable scenarios accept one.
	Filter []string
}

// Scenario is one registered experiment.
type Scenario struct {
	// Name is the stable registry key ("fig3", "table-i", "delays", …).
	Name string
	// Group buckets scenarios by subsystem: "analysis", "attack",
	// "baseline", "defense" or "extension".
	Group string
	// Description is the one-line human summary jgre-run list prints.
	Description string
	// Parallelizable marks scenarios whose Run fans out over
	// Params.Workers with byte-identical results for any worker count —
	// the engine guarantee jgre-bench and the equivalence tests verify.
	Parallelizable bool
	// Slow marks scenarios too expensive to run twice under -short; the
	// registry-driven equivalence tests skip them in short mode.
	Slow bool
	// Filterable marks scenarios whose Run reads Params.Filter. Execute
	// rejects a filter for every other scenario rather than ignore it.
	Filterable bool
	// Run executes the experiment and returns its result (a
	// JSON-marshalable value).
	Run func(ctx context.Context, p Params) (any, error)
	// Shards reports the fan-out width of a result (how many independent
	// devices the sweep booted), for jgre-bench's report. Nil means
	// unknown.
	Shards func(result any) int
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Scenario)
)

// Register adds a scenario to the registry. It panics on a duplicate or
// incomplete registration — both are programming errors caught at init.
func Register(s Scenario) {
	if s.Name == "" || s.Group == "" || s.Run == nil {
		panic(fmt.Sprintf("scenario: incomplete registration %+v", s))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration %q", s.Name))
	}
	registry[s.Name] = s
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// List returns every registered scenario, sorted by group then name, so
// front ends enumerate a stable order.
func List() []Scenario {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Envelope is the common JSON result wrapper every front end emits: the
// scenario's identity, the parameters it ran under, the wall-clock time
// it took and its result.
type Envelope struct {
	Scenario string   `json:"scenario"`
	Group    string   `json:"group"`
	Scale    string   `json:"scale"`
	Filter   []string `json:"filter,omitempty"`
	Workers  int      `json:"workers"`
	// FleetDevices is the fleet width of a fleet scenario's sweep (how
	// many devices the rollup folded), sniffed from the result via the
	// FleetDevices() interface. Zero for non-fleet scenarios.
	FleetDevices int     `json:"fleet_devices,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	Result       any     `json:"result"`
}

// Execute runs the scenario and wraps its result in the envelope.
func (s Scenario) Execute(ctx context.Context, p Params) (*Envelope, error) {
	if len(p.Filter) > 0 && !s.Filterable {
		return nil, fmt.Errorf("scenario: %s takes no filter (got %q)", s.Name, p.Filter)
	}
	start := time.Now()
	res, err := s.Run(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	env := &Envelope{
		Scenario: s.Name,
		Group:    s.Group,
		Scale:    p.Scale.String(),
		Filter:   p.Filter,
		Workers:  p.Workers,
		WallMS:   float64(time.Since(start)) / float64(time.Millisecond),
		Result:   res,
	}
	if fd, ok := res.(interface{ FleetDevices() int }); ok {
		env.FleetDevices = fd.FleetDevices()
	}
	return env, nil
}

// Execute looks the scenario up by name and runs it.
func Execute(ctx context.Context, name string, p Params) (*Envelope, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	return s.Execute(ctx, p)
}

// JSON renders the envelope indented, newline-terminated — jgre-run's
// -json output.
func (e *Envelope) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshalling %s envelope: %w", e.Scenario, err)
	}
	return append(b, '\n'), nil
}

// CanonicalJSON renders the envelope with the run metadata that
// legitimately varies between runs — wall-clock time and the worker
// count — zeroed out. Two runs of the same scenario are equivalent iff
// their canonical bytes match; this is the equality the workers=1-vs-N
// tests and jgre-bench assert.
func (e *Envelope) CanonicalJSON() ([]byte, error) {
	c := *e
	c.WallMS = 0
	c.Workers = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("scenario: marshalling %s envelope: %w", e.Scenario, err)
	}
	return b, nil
}
