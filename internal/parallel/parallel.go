// Package parallel is the deterministic fan-out engine behind every
// experiment sweep. Each shard of a sweep is fully isolated — it boots its
// own device with its own virtual clock and seeded PRNGs — so shards can
// run on any number of workers in any completion order and the merged
// output is byte-identical to a sequential run: Map always returns results
// in input order.
//
// The engine is deliberately generic (it knows nothing about devices or
// experiments) so the analysis pipeline's dynamic verification stage and
// any future sweep can reuse it. It keeps no metrics: the workers share
// only the shard-claim counter and the fail-fast context, and what a
// sweep measured lives in its results and its devices' registries.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool size used when Map is given workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError converts a shard panic into an error carrying the shard's
// input index, the panic value and the goroutine stack, so one corrupt
// shard fails its sweep with full context instead of crashing the process.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: shard %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs fn over every item on a pool of workers and returns the
// results in input order, regardless of completion order.
//
//   - workers <= 0 uses DefaultWorkers(); workers == 1 runs the shards
//     inline on the calling goroutine (the legacy sequential path).
//   - A shard panic is recovered into a *PanicError.
//   - The first failing shard cancels the context passed to the remaining
//     shards and stops new shards from starting (fail-fast); shards
//     already running are waited for. On failure Map returns a nil slice
//     and the error of the lowest-indexed shard that ran and failed.
//   - Cancelling ctx stops the sweep the same way and surfaces ctx.Err().
//
// fn must not retain item or share mutable state across shards; with
// isolated shards, the result of Map is independent of the worker count.
func Map[T, R any](ctx context.Context, items []T, workers int, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	if len(items) == 0 {
		return []R{}, nil
	}
	results := make([]R, len(items))
	if workers == 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := run(ctx, i, item, fn)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	// Workers claim fixed-length runs of adjacent shards instead of single
	// items: one atomic claim amortizes across the run and adjacent shards
	// write adjacent result slots, which is what makes fine-grained sweeps
	// (hundreds of sub-millisecond shards) profitable to parallelize at
	// all. Results are position-addressed, so the chunk size can never
	// influence the output — only who computes it.
	chunk := len(items) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	} else if chunk > 64 {
		chunk = 64
	}
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= len(items) || ctx.Err() != nil {
					return
				}
				end := start + chunk
				if end > len(items) {
					end = len(items)
				}
				for i := start; i < end; i++ {
					if ctx.Err() != nil {
						return
					}
					r, err := run(ctx, i, items[i], fn)
					if err != nil {
						errs[i] = err
						cancel() // fail fast: stop handing out shards
						return
					}
					results[i] = r
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// No shard failed, so any cancellation came from the caller's context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// run invokes fn on one shard with panic recovery.
func run[T, R any](ctx context.Context, i int, item T, fn func(context.Context, int, T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, item)
}
