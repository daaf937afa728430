// Package fleet is the sharded fleet execution engine: it runs a
// workload across hundreds to thousands of simulated devices on the
// parallel worker pool, with each worker owning a long-lived
// device.Slot that is recycled between trials (one cold clone from the
// boot-template cache per slot, then an in-place copy-on-write rewind
// per device) instead of booting a fresh device per trial.
//
// Determinism contract: a device's trial depends only on the fleet seed
// and its device index (per-device seeds are derived with splitmix64),
// devices are sharded into fixed-size chunks whose size never depends on
// the worker count, each chunk folds its trials into a private
// Accumulator, and the engine merges chunk accumulators in chunk-index
// order. The resulting Result is therefore byte-identical for any worker
// count, and equal to a run whose slots boot every device fresh
// (device.SetCloneBoot(false)) — the property the fleet determinism
// suite asserts.
package fleet

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// DefaultChunkSize is the shard width of the device index space. It is
// a per-run constant (never derived from the worker count): chunk
// boundaries are part of the deterministic shape of the run.
const DefaultChunkSize = 64

// Config parameterizes a fleet run.
type Config struct {
	// Devices is the fleet width.
	Devices int
	// Workers sizes the parallel.Map pool (0 = one per CPU).
	Workers int
	// Seed is the fleet seed; per-device seeds are splitmix64-derived
	// from it and the device index.
	Seed int64
	// ChunkSize overrides DefaultChunkSize (tests only — changing it
	// changes accumulator fold boundaries but not the merged result).
	ChunkSize int
	// Device is the device shape every fleet member boots with. All
	// devices share one shape (and therefore one boot template); only
	// the seed varies.
	Device device.Config
}

// Workload is one fleet experiment: Run executes a single device's
// trial. Run must derive all randomness from seed (never from the slot's
// history) and must drop every reference to dev when it returns — the
// engine rewinds the device in place for the next trial.
type Workload struct {
	Name string
	Run  func(dev *device.Device, index int, seed int64) (Trial, error)
}

// WithTraceCapture wraps the workload so fn receives each trial's
// flight-recorder snapshot (with the device's pid display names) after
// the trial completes and before the slot is rewound. The snapshot is
// keyed by device index — a pure function of (fleet seed, index) —
// which is what lets callers merge per-device traces into a byte-
// identical export regardless of worker count. fn runs on worker
// goroutines and must be safe for concurrent calls; it is not called
// for trials where tracing is off or Run failed.
func (w Workload) WithTraceCapture(fn func(index int, spans []trace.SpanRecord, names map[int32]string)) Workload {
	inner := w.Run
	w.Run = func(dev *device.Device, index int, seed int64) (Trial, error) {
		t, err := inner(dev, index, seed)
		if err == nil {
			if rec := dev.Recorder(); rec.Enabled() {
				fn(index, rec.Spans(), dev.ProcNames())
			}
		}
		return t, err
	}
	return w
}

// DeviceSeed derives the per-device boot seed from the fleet seed and
// the device index with a splitmix64 finalizer, so neighbouring indices
// get decorrelated seeds and the mapping is worker-independent.
func DeviceSeed(fleetSeed int64, index int) int64 {
	x := uint64(fleetSeed) + (uint64(index)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// slotPool hands long-lived device slots to workers. Slots outlive
// chunks: a worker grabs one per chunk and returns it, so at most
// min(workers, chunks) slots — and template clones — exist per run.
// Which slot serves which chunk is scheduling-dependent, but a slot
// carries no state that can leak into a trial (Acquire rewinds to the
// sealed template), so the pairing cannot affect results.
type slotPool struct {
	cfg  device.Config
	mu   sync.Mutex
	free []*device.Slot
}

func (p *slotPool) get() (*device.Slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s, nil
	}
	return device.NewSlot(p.cfg)
}

func (p *slotPool) put(s *device.Slot) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Run executes the workload across cfg.Devices devices and returns the
// merged rollup. Memory is bounded: per-device envelopes are never
// materialized — each chunk folds into one Accumulator as trials finish.
func Run(ctx context.Context, cfg Config, w Workload) (*Result, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("fleet: %s: no devices (Devices=%d)", w.Name, cfg.Devices)
	}
	if w.Run == nil {
		return nil, fmt.Errorf("fleet: %s: workload has no Run", w.Name)
	}
	chunkSize := cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	nchunks := (cfg.Devices + chunkSize - 1) / chunkSize
	chunks := make([]int, nchunks)
	for i := range chunks {
		chunks[i] = i
	}
	pool := &slotPool{cfg: cfg.Device}
	accs, err := parallel.Map(ctx, chunks, cfg.Workers,
		func(ctx context.Context, _ int, chunk int) (*Accumulator, error) {
			acc := NewAccumulator()
			slot, err := pool.get()
			if err != nil {
				return nil, fmt.Errorf("fleet: %s: slot: %w", w.Name, err)
			}
			defer pool.put(slot)
			lo := chunk * chunkSize
			hi := lo + chunkSize
			if hi > cfg.Devices {
				hi = cfg.Devices
			}
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				seed := DeviceSeed(cfg.Seed, i)
				dev, err := slot.Acquire(seed)
				if err != nil {
					return nil, fmt.Errorf("fleet: %s: device %d: %w", w.Name, i, err)
				}
				trial, err := w.Run(dev, i, seed)
				if err != nil {
					return nil, fmt.Errorf("fleet: %s: device %d: %w", w.Name, i, err)
				}
				acc.Add(trial)
			}
			return acc, nil
		})
	if err != nil {
		return nil, err
	}
	total := NewAccumulator()
	for _, acc := range accs {
		total.Merge(acc)
	}
	return total.result(w.Name, cfg.Devices, chunkSize, cfg.Seed), nil
}
