# Build / test / CI entry points. `make ci` is the full gate: vet, the
# tier-1 build+test flow, the race detector over the concurrent
# experiment engine and everything that runs on it, and a short fuzz
# smoke over the IPC-record parser.

GO ?= go

.PHONY: build test vet fmt race fuzz-smoke bench bench-json bench-profile bench-smoke cover ci

build:
	$(GO) build ./...

# fleetbench/ is its own module, so ./... never compiles it: test and vet
# also run inside it, which catches a change to an API the benchmark
# harness uses (device.Config, fleet.Run) before the benchmark does.
test:
	$(GO) test ./...
	cd fleetbench && $(GO) test .

vet:
	$(GO) vet ./...
	cd fleetbench && $(GO) vet .

# The parallel engine and its consumers must stay race-clean: the fan-out
# pool, the converted experiment sweeps, the pipeline's parallel
# dynamic-verification stage, the scenario registry that drives them, the
# fault-injected defense/binder/faults telemetry path, the event
# queue and the device snapshot/clone layer every concurrent shard now
# boots through, plus the tracing-enabled paths (binder span emission,
# art JGR hooks, defender causal spans, the recorder/exporter) and the
# traced-fleet capture that runs them across worker goroutines, and the
# lock-free virtual clock every layer reads, and the service dispatch
# tables every boot, soft reboot and client on any goroutine shares, and
# the kernel whose sealed process table every clone reads while each
# worker's recycled slot parks and respawns its own processes.
race:
	$(GO) test -race ./internal/parallel ./internal/experiments ./internal/analysis ./internal/scenario ./internal/defense ./internal/binder ./internal/faults ./internal/event ./internal/device ./internal/chaos ./internal/fleet ./internal/art ./internal/trace ./internal/simclock ./internal/services ./internal/kernel ./cmd/jgre-trace

# Coverage-guided fuzzing smoke: the kernel log-record parser (the one
# spot where the defender consumes a wire format), the differential pin
# of the streaming correlator against a naive per-bucket reference
# scorer (Algorithm 1 written out literally), the event queue's ordering
# invariant (virtual time, then priority, then sequence) under arbitrary
# push/pop interleavings, the defender checkpoint codec (decode
# never panics on arbitrary bytes; any accepted input re-encodes
# byte-identically), the Chrome trace-event exporter (never panics
# on arbitrary span records, always emits schema-valid JSON), the
# bounded record ring under every buffer (matches the copy-shift
# reference over random capacities, push runs, drains and resets), the
# ART reference tables (match a map model op by op, on a fresh VM and
# on a template clone, and rewind to a fresh clone's state), and the
# kernel's process table (spawns, kills, LMK evictions and soft reboots
# on a template, its clones and their rewinds, checked after every step
# against a model of the pids built from Spawn's results and kill
# events).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseIPCRecord -fuzztime=10s -run '^$$' ./internal/binder
	$(GO) test -fuzz=FuzzCorrelatorDifferential -fuzztime=5s -run '^$$' ./internal/defense
	$(GO) test -fuzz=FuzzEventQueue -fuzztime=5s -run '^$$' ./internal/event
	$(GO) test -fuzz=FuzzCheckpointRoundTrip -fuzztime=5s -run '^$$' ./internal/defense
	$(GO) test -fuzz=FuzzTraceExport -fuzztime=5s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzRing -fuzztime=5s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzRefTable -fuzztime=5s -run '^$$' ./internal/art
	$(GO) test -fuzz=FuzzProcessTable -fuzztime=5s -run '^$$' ./internal/kernel

# Regenerate the sequential-vs-parallel sweep timings (BENCH_parallel.json).
bench-json:
	$(GO) run ./cmd/jgre-bench -bench-json BENCH_parallel.json

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# Profile the sweep engine's hot path. Inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
bench-profile:
	$(GO) run ./cmd/jgre-bench -cpuprofile cpu.pprof -memprofile mem.pprof -bench-json -

# bench_gate fails unless every benchmark named in $(1) ran in the
# `go test -bench` output file $(2) with a median over its runs (one run
# is its own median) of no more $(4) than its ceiling in the $(3) map of
# BENCH_hotpath.json, which is where the numbers live. Only the lines
# inside that map are read as ceilings.
bench_gate = awk -v names='$(1)' -v key='$(3)' -v unit='$(4)' ' \
	FNR == NR { if ($$0 ~ "\"" key "\": *[{]") { inmap = 1; next } if (inmap && $$0 ~ /}/) inmap = 0; \
		if (inmap && split($$0, q, "\"") >= 3 && q[2] ~ /^Benchmark/) { v = q[3]; gsub(/[^0-9]/, "", v); max[q[2]] = v + 0 } next } \
	{ b = $$1; sub(/-[0-9]+$$/, "", b); if (b in max) for (i = 3; i <= NF; i++) if ($$i == unit) { runs[b]++; val[b, runs[b]] = $$(i-1) + 0 } } \
	END { n = split(names, want, " "); for (w = 1; w <= n; w++) { b = want[w]; \
		if (!(b in max)) { printf "bench-smoke: BENCH_hotpath.json has no %s for %s\n", key, b; exit 1 } \
		if (!(b in runs)) { printf "bench-smoke: %s did not run\n", b; exit 1 } \
		k = runs[b]; for (i = 1; i <= k; i++) s[i] = val[b, i]; \
		for (i = 2; i <= k; i++) { x = s[i]; for (j = i - 1; j >= 1 && s[j] > x; j--) s[j+1] = s[j]; s[j+1] = x } \
		med = (k % 2) ? s[(k+1)/2] : (s[k/2] + s[k/2+1]) / 2; \
		if (med > max[b]) { printf "bench-smoke: %s median %d %s of %d runs exceeds its %d %s ceiling (BENCH_hotpath.json)\n", b, med, unit, k, max[b], unit; exit 1 } \
		printf "bench-smoke: %s median %d %s of %d runs (ceiling %d)\n", b, med, unit, k, max[b] } }' \
	BENCH_hotpath.json $(2)

# One iteration of every micro-benchmark: catches benchmarks that broke
# (compile errors, fixture failures, b.Fatal) without paying full timing
# runs in CI. The grep asserts the telemetry-overhead comparison pair
# actually ran — it is the guard on the instrumented hot path. Every
# gate is one bench_gate call, reading its ceiling from
# BENCH_hotpath.json. The ns/op gates run their benchmark at a fixed
# iteration count so the gate holds a mean, not one cold call: the
# streaming correlator stays >=10x under the segment-tree incremental
# baseline (BenchmarkCorrelate/incremental, 50x), killing a client that
# holds 6,000 registrations stays linear in them
# (BenchmarkKillRegistrant/entries=6000, 20x), one attack trial's JGR
# table work — 12,000 adds and 6,000 deletes on a template clone, then
# the rewind — stays on the slot array (BenchmarkJGRTableAttack, 50x),
# and the tracing-off logged-transact paths stay within 5% of their
# recorded baselines (BenchmarkTransactLogged, the median of 5 runs at
# 2000x: one run's mean spreads past 5% on host noise alone). On a
# shared host those ns/op ceilings catch only a large regression, so
# the correlator, kill, table-attack and logged-transact runs also gate
# allocs/op (max_allocs_per_op), at the count each reads today. The
# allocation gates hold deterministic counts to 5% over the measured
# value: BenchmarkDeviceClone's B/op and
# allocs/op (max_bytes_per_op, max_allocs_per_op), so a clone that
# refills the service-name maps or the handle index it shares with its
# template again fails, BenchmarkSoftReboot's allocs/op and B/op (only
# the timed reboot counts, 20x), so a reboot that rebuilds what every
# boot shares, gives the filler daemons an ART runtime again, or regrows
# a process map, fails,
# BenchmarkRegister's allocs/op and B/op (one attacker registration on a
# recycled slot, 2000x: the count is whole objects per registration, two
# since the proxy is its BinderRef and the callback entry holds its
# death link, and the bytes also catch the amortized regrowth of storage
# the slot should have kept), BenchmarkFleet's allocs/op (256
# devices on recycled slots, 2x), so a fleet whose slots stop recycling,
# or stop keeping their binder storage and spawned processes, fails, and
# BenchmarkDefendedTrial's allocs/op and B/op (one defended attack trial
# to the first engagement on a recycled slot, 20x), so a defender that
# grows its own add-time log, evidence window and correlator again, or a
# slot rewind that stops taking back the benign apps' generators, fails.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./internal/binder ./internal/defense ./internal/services ./internal/telemetry \
		| tee /tmp/jgre-bench-smoke.out
	@grep -q 'BenchmarkTelemetryOverhead/instrumented' /tmp/jgre-bench-smoke.out \
		|| { echo 'bench-smoke: telemetry overhead benchmark did not run'; exit 1; }
	$(GO) test -bench='^BenchmarkCorrelate$$/^incremental$$' -benchtime=50x -benchmem -run '^$$' ./internal/defense \
		| tee /tmp/jgre-correlate-smoke.out
	@$(call bench_gate,BenchmarkCorrelate/incremental,/tmp/jgre-correlate-smoke.out,max_ns_per_op,ns/op)
	@$(call bench_gate,BenchmarkCorrelate/incremental,/tmp/jgre-correlate-smoke.out,max_allocs_per_op,allocs/op)
	$(GO) test -bench='^BenchmarkKillRegistrant$$/^entries=6000$$' -benchtime=20x -benchmem -run '^$$' ./internal/services \
		| tee /tmp/jgre-kill-smoke.out
	@$(call bench_gate,BenchmarkKillRegistrant/entries=6000,/tmp/jgre-kill-smoke.out,max_ns_per_op,ns/op)
	@$(call bench_gate,BenchmarkKillRegistrant/entries=6000,/tmp/jgre-kill-smoke.out,max_allocs_per_op,allocs/op)
	$(GO) test -bench='^BenchmarkJGRTableAttack$$' -benchtime=50x -benchmem -run '^$$' ./internal/art \
		| tee /tmp/jgre-table-smoke.out
	@$(call bench_gate,BenchmarkJGRTableAttack,/tmp/jgre-table-smoke.out,max_ns_per_op,ns/op)
	@$(call bench_gate,BenchmarkJGRTableAttack,/tmp/jgre-table-smoke.out,max_allocs_per_op,allocs/op)
	$(GO) test -bench='^BenchmarkDevice(Boot|Clone)$$' -benchtime=400x -benchmem -run '^$$' . \
		| tee /tmp/jgre-clone-smoke.out
	@$(call bench_gate,BenchmarkDeviceClone,/tmp/jgre-clone-smoke.out,max_allocs_per_op,allocs/op)
	@$(call bench_gate,BenchmarkDeviceClone,/tmp/jgre-clone-smoke.out,max_bytes_per_op,B/op)
	$(GO) test -bench='^BenchmarkSoftReboot$$' -benchtime=20x -benchmem -run '^$$' ./internal/device \
		| tee /tmp/jgre-reboot-smoke.out
	@$(call bench_gate,BenchmarkSoftReboot,/tmp/jgre-reboot-smoke.out,max_allocs_per_op,allocs/op)
	@$(call bench_gate,BenchmarkSoftReboot,/tmp/jgre-reboot-smoke.out,max_bytes_per_op,B/op)
	$(GO) test -bench='^BenchmarkRegister$$' -benchtime=2000x -benchmem -run '^$$' ./internal/device \
		| tee /tmp/jgre-register-smoke.out
	@$(call bench_gate,BenchmarkRegister,/tmp/jgre-register-smoke.out,max_allocs_per_op,allocs/op)
	@$(call bench_gate,BenchmarkRegister,/tmp/jgre-register-smoke.out,max_bytes_per_op,B/op)
	$(GO) test -bench='^BenchmarkTransactLogged$$' -benchtime=2000x -count=5 -benchmem -run '^$$' ./internal/binder \
		| tee /tmp/jgre-hotpath-smoke.out
	@$(call bench_gate,BenchmarkTransactLogged/unbounded BenchmarkTransactLogged/ring-flood,/tmp/jgre-hotpath-smoke.out,max_ns_per_op,ns/op)
	@$(call bench_gate,BenchmarkTransactLogged/unbounded BenchmarkTransactLogged/ring-flood,/tmp/jgre-hotpath-smoke.out,max_allocs_per_op,allocs/op)
	$(GO) test -bench='^BenchmarkFleet$$' -benchtime=2x -run '^$$' ./internal/fleet \
		| tee /tmp/jgre-fleet-smoke.out
	@$(call bench_gate,BenchmarkFleet,/tmp/jgre-fleet-smoke.out,max_allocs_per_op,allocs/op)
	$(GO) test -bench='^BenchmarkDefendedTrial$$' -benchtime=20x -benchmem -run '^$$' ./internal/fleet \
		| tee /tmp/jgre-defend-smoke.out
	@$(call bench_gate,BenchmarkDefendedTrial,/tmp/jgre-defend-smoke.out,max_allocs_per_op,allocs/op)
	@$(call bench_gate,BenchmarkDefendedTrial,/tmp/jgre-defend-smoke.out,max_bytes_per_op,B/op)

# Coverage floors. The telemetry registry's zero-alloc counters and
# Prometheus renderer are pure library code every layer leans on, so
# they stay at >= 85% statement coverage. The chaos engine and
# supervisor gate every recovery claim the chaos-* scenarios make, so
# their fault-schedule and backoff paths stay at >= 75%; likewise the
# fleet engine's chunking/merge/slot-pool paths back every fleet-*
# rollup, so internal/fleet holds >= 75%. The trace package (recorder
# ring, ID minting, Chrome exporter) backs every byte-identity claim the
# tracing layer makes, so it holds >= 80%. The kernel's process table,
# LMK and soft reboot sit under every device, template and clone, so
# internal/kernel holds >= 90%.
cover:
	$(GO) test -cover -coverprofile=/tmp/jgre-telemetry.cover ./internal/telemetry
	@total=$$($(GO) tool cover -func=/tmp/jgre-telemetry.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/telemetry coverage: $$total%"; \
		awk -v t="$$total" 'BEGIN { exit (t >= 85.0) ? 0 : 1 }' \
		|| { echo "cover: internal/telemetry coverage $$total% below 85% floor"; exit 1; }
	$(GO) test -cover -coverprofile=/tmp/jgre-chaos.cover ./internal/chaos
	@total=$$($(GO) tool cover -func=/tmp/jgre-chaos.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/chaos coverage: $$total%"; \
		awk -v t="$$total" 'BEGIN { exit (t >= 75.0) ? 0 : 1 }' \
		|| { echo "cover: internal/chaos coverage $$total% below 75% floor"; exit 1; }
	$(GO) test -cover -coverprofile=/tmp/jgre-fleet.cover ./internal/fleet
	@total=$$($(GO) tool cover -func=/tmp/jgre-fleet.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/fleet coverage: $$total%"; \
		awk -v t="$$total" 'BEGIN { exit (t >= 75.0) ? 0 : 1 }' \
		|| { echo "cover: internal/fleet coverage $$total% below 75% floor"; exit 1; }
	$(GO) test -cover -coverprofile=/tmp/jgre-trace.cover ./internal/trace
	@total=$$($(GO) tool cover -func=/tmp/jgre-trace.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/trace coverage: $$total%"; \
		awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' \
		|| { echo "cover: internal/trace coverage $$total% below 80% floor"; exit 1; }
	$(GO) test -cover -coverprofile=/tmp/jgre-kernel.cover ./internal/kernel
	@total=$$($(GO) tool cover -func=/tmp/jgre-kernel.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/kernel coverage: $$total%"; \
		awk -v t="$$total" 'BEGIN { exit (t >= 90.0) ? 0 : 1 }' \
		|| { echo "cover: internal/kernel coverage $$total% below 90% floor"; exit 1; }

# Every Go file must be gofmt-clean.
fmt:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "fmt: gofmt -l reports:"; echo "$$files"; exit 1; }

ci: fmt vet build test race fuzz-smoke bench-smoke cover
