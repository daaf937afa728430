package scenario

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// TestParallelEquivalence asserts the engine's core guarantee over the
// whole registry: for every Parallelizable scenario, workers=1 and
// workers=8 produce byte-identical canonical envelopes (wall time and
// the worker count are the only run metadata allowed to differ). The
// scenario list comes from List(), not a hand-maintained table, so a new
// parallel sweep is covered the moment it registers.
func TestParallelEquivalence(t *testing.T) {
	for _, sc := range List() {
		if !sc.Parallelizable {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Slow && testing.Short() {
				t.Skip("slow sweep runs twice; skipped under -short")
			}
			t.Parallel()
			run := func(workers int) []byte {
				env, err := sc.Execute(context.Background(), Params{Scale: Quick, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				b, err := env.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			seq, par := run(1), run(8)
			if !bytes.Equal(seq, par) {
				t.Errorf("workers=1 and workers=8 envelopes differ\nseq: %.400s\npar: %.400s", seq, par)
			}
		})
	}
}

// TestShardCounts: every Parallelizable scenario reports a positive
// fan-out width, the number jgre-bench prints per sweep.
func TestShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every parallel sweep once")
	}
	for _, sc := range List() {
		if !sc.Parallelizable || sc.Shards == nil {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			env, err := sc.Execute(context.Background(), Params{Scale: Quick})
			if err != nil {
				t.Fatal(err)
			}
			if n := sc.Shards(env.Result); n <= 0 {
				t.Errorf("Shards = %d, want > 0", n)
			}
		})
	}
}

// TestCancellationPropagates: cancelling the context mid-sweep makes Run
// return promptly with ctx.Err() in the chain, for at least one
// parallelizable scenario in every group that has one (the baseline
// group's only scenario is sequential). The pool's fail-fast semantics
// mean no full sweep runs after the cancel. A sweep fast enough to
// finish before the cancel lands runs again on a cancelled context.
func TestCancellationPropagates(t *testing.T) {
	picked := make(map[string]Scenario)
	for _, sc := range List() {
		if sc.Parallelizable {
			if _, ok := picked[sc.Group]; !ok {
				picked[sc.Group] = sc
			}
		}
	}
	if len(picked) < 4 {
		t.Fatalf("parallelizable coverage spans %d groups, want ≥ 4", len(picked))
	}
	for _, sc := range picked {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(time.Millisecond)
				cancel()
			}()
			start := time.Now()
			env, err := sc.Execute(ctx, Params{Scale: Quick, Workers: 4})
			elapsed := time.Since(start)
			if err == nil {
				// The sweep's first shards can legitimately win the race
				// against a 1 ms cancel only if the whole run is near-instant;
				// anything else must surface the cancellation.
				if elapsed > 100*time.Millisecond {
					t.Fatalf("no error despite cancellation (ran %v)", elapsed)
				}
				// The sweep finished in elapsed before the cancel landed,
				// so check propagation on an already-cancelled context.
				pre, cancelPre := context.WithCancel(context.Background())
				cancelPre()
				start = time.Now()
				env, err = sc.Execute(pre, Params{Scale: Quick, Workers: 4})
				elapsed = time.Since(start)
			}
			if env != nil {
				t.Errorf("envelope returned alongside error: %+v", env)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error does not wrap context.Canceled: %v", err)
			}
			// "Promptly": a cancelled sweep must not run anywhere near a
			// full one (the slowest full sweeps take seconds).
			if elapsed > 30*time.Second {
				t.Errorf("cancelled sweep still ran %v", elapsed)
			}
		})
	}
}
