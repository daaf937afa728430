package scenario

import (
	"context"

	"repro/internal/fleet"
)

// GroupFleet buckets the fleet-scale scenarios: sharded sweeps over
// hundreds to thousands of recycled device slots with streaming,
// bounded-memory rollups.
const GroupFleet = "fleet"

// fleetWidth is the fleet size per scale. Quick already runs a
// four-figure fleet — the whole point of slot recycling is that a
// thousand devices cost tens of milliseconds, not minutes.
func fleetWidth(s Scale) int {
	if s == Full {
		return 4096
	}
	return 1024
}

// fleetParams maps registry params onto a fleet config. The fleet seed
// is pinned, like every registered scenario's device seeds, so envelopes
// are reproducible.
func fleetParams(p Params, devices int) fleet.Config {
	return fleet.Config{
		Devices: devices,
		Workers: p.Workers,
		Seed:    1042,
	}
}

// fleetShards reports the fleet width as the sweep's fan-out.
func fleetShards(result any) int {
	r, _ := result.(*fleet.Result)
	if r == nil {
		return 0
	}
	return r.Devices
}

func init() {
	Register(Scenario{
		Name:           "fleet-baseline",
		Group:          GroupFleet,
		Description:    "benign probe across a 1k+ device fleet on recycled slots; devices/sec headline and health rollup",
		Parallelizable: true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return fleet.Run(ctx, fleetParams(p, fleetWidth(p.Scale)), fleet.BaselineProbe())
		},
		Shards: fleetShards,
	})
	Register(Scenario{
		Name:           "fleet-attack-rollout",
		Group:          GroupFleet,
		Description:    "staged JGRE infection ramping 0→100% across the fleet; detection-rate and time-to-recovery rollups",
		Parallelizable: true,
		Slow:           true,
		Run: func(ctx context.Context, p Params) (any, error) {
			devices := fleetWidth(p.Scale)
			return fleet.Run(ctx, fleetParams(p, devices), fleet.AttackRollout(devices))
		},
		Shards: fleetShards,
	})
	Register(Scenario{
		Name:           "fleet-colluders",
		Group:          GroupFleet,
		Description:    "two-app colluder cells on a quarter of the fleet; attribution split of colluders caught vs innocents killed",
		Parallelizable: true,
		Slow:           true,
		Run: func(ctx context.Context, p Params) (any, error) {
			return fleet.Run(ctx, fleetParams(p, fleetWidth(p.Scale)), fleet.Colluders())
		},
		Shards: fleetShards,
	})
}
