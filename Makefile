# Build / test / CI entry points. `make ci` is the full gate: vet, the
# tier-1 build+test flow, the race detector over the concurrent
# experiment engine and everything that runs on it, and a short fuzz
# smoke over the IPC-record parser.

GO ?= go

.PHONY: build test vet fmt race fuzz-smoke bench bench-json bench-fleet-json bench-profile bench-smoke cover ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The parallel engine and its consumers must stay race-clean: the fan-out
# pool, the converted experiment sweeps, the pipeline's parallel
# dynamic-verification stage, the scenario registry that drives them, the
# fault-injected defense/binder/faults telemetry path, the event
# queue and the device snapshot/clone layer every concurrent shard now
# boots through, plus the tracing-enabled paths (binder span emission,
# art JGR hooks, defender causal spans, the recorder/exporter) and the
# traced-fleet capture that runs them across worker goroutines.
race:
	$(GO) test -race ./internal/parallel ./internal/experiments ./internal/analysis ./internal/scenario ./internal/defense ./internal/binder ./internal/faults ./internal/event ./internal/device ./internal/chaos ./internal/fleet ./internal/art ./internal/trace ./cmd/jgre-trace

# Coverage-guided fuzzing smoke: the kernel log-record parser (the one
# spot where the defender consumes a wire format), the differential pin
# of the streaming correlator against a naive per-bucket reference
# scorer (Algorithm 1 written out literally), the event queue's ordering
# invariant (virtual time, then priority, then sequence) under arbitrary
# push/pop interleavings, the defender checkpoint codec (decode
# never panics on arbitrary bytes; any accepted input re-encodes
# byte-identically), the Chrome trace-event exporter (never panics
# on arbitrary span records, always emits schema-valid JSON), and the
# bounded record ring under every buffer (matches the copy-shift
# reference over random capacities, push runs, drains and resets).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseIPCRecord -fuzztime=10s -run '^$$' ./internal/binder
	$(GO) test -fuzz=FuzzCorrelatorDifferential -fuzztime=5s -run '^$$' ./internal/defense
	$(GO) test -fuzz=FuzzEventQueue -fuzztime=5s -run '^$$' ./internal/event
	$(GO) test -fuzz=FuzzCheckpointRoundTrip -fuzztime=5s -run '^$$' ./internal/defense
	$(GO) test -fuzz=FuzzTraceExport -fuzztime=5s -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzRing -fuzztime=5s -run '^$$' ./internal/trace

# Regenerate the sequential-vs-parallel sweep timings (BENCH_parallel.json).
bench-json:
	$(GO) run ./cmd/jgre-bench -bench-json BENCH_parallel.json

# Regenerate the fleet slot-mode throughput comparison (BENCH_fleet.json):
# devices/sec for recycled vs cloned-per-device vs freshly-booted slots,
# with allocation accounting.
bench-fleet-json:
	$(GO) run ./cmd/jgre-bench -fleet-json BENCH_fleet.json

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# Profile the sweep engine's hot path. Inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
bench-profile:
	$(GO) run ./cmd/jgre-bench -cpuprofile cpu.pprof -memprofile mem.pprof -bench-json -

# bench_gate fails unless every benchmark named in $(1) ran in the
# `go test -bench` output file $(2) at no more ns/op than its ceiling in
# BENCH_hotpath.json's max_ns_per_op, which is where the numbers live.
bench_gate = awk -v names='$(1)' ' \
	FNR == NR { if (split($$0, q, "\"") >= 3 && q[2] ~ /^Benchmark/) { v = q[3]; gsub(/[^0-9]/, "", v); max[q[2]] = v + 0 } next } \
	{ b = $$1; sub(/-[0-9]+$$/, "", b); if (b in max) ns[b] = $$3 + 0 } \
	END { n = split(names, want, " "); for (i = 1; i <= n; i++) { b = want[i]; \
		if (!(b in max)) { printf "bench-smoke: BENCH_hotpath.json has no max_ns_per_op for %s\n", b; exit 1 } \
		if (!(b in ns)) { printf "bench-smoke: %s did not run\n", b; exit 1 } \
		if (ns[b] > max[b]) { printf "bench-smoke: %s %d ns/op exceeds its %d ns/op ceiling (BENCH_hotpath.json)\n", b, ns[b], max[b]; exit 1 } \
		printf "bench-smoke: %s %d ns/op (ceiling %d)\n", b, ns[b], max[b] } }' \
	BENCH_hotpath.json $(2)

# One iteration of every micro-benchmark: catches benchmarks that broke
# (compile errors, fixture failures, b.Fatal) without paying full timing
# runs in CI. The grep asserts the telemetry-overhead comparison pair
# actually ran — it is the guard on the instrumented hot path. The
# ns/op gates read their ceilings from BENCH_hotpath.json, and each runs
# its benchmark at a fixed iteration count so the gate holds a mean, not
# one cold call: the streaming correlator stays >=10x under the
# segment-tree incremental baseline (BenchmarkCorrelate/incremental,
# 50x), killing a client that holds 6,000 registrations stays linear in
# them (BenchmarkKillRegistrant/entries=6000, 20x), and the tracing-off
# logged-transact paths stay within 5% of their recorded baselines
# (BenchmarkTransactLogged, 2000x). The device-clone gate holds
# BenchmarkDeviceClone's B/op and allocs/op (deterministic, unlike its
# ns/op) to at most 5% over the clone_bytes_per_op/clone_allocs_per_op
# that `make bench-json` writes into BENCH_parallel.json, read from that
# file. BenchmarkSoftReboot runs once so the reboot-layer benchmark
# cannot rot.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./internal/binder ./internal/defense ./internal/services ./internal/telemetry \
		| tee /tmp/jgre-bench-smoke.out
	@grep -q 'BenchmarkTelemetryOverhead/instrumented' /tmp/jgre-bench-smoke.out \
		|| { echo 'bench-smoke: telemetry overhead benchmark did not run'; exit 1; }
	$(GO) test -bench='^BenchmarkCorrelate$$/^incremental$$' -benchtime=50x -run '^$$' ./internal/defense \
		| tee /tmp/jgre-correlate-smoke.out
	@$(call bench_gate,BenchmarkCorrelate/incremental,/tmp/jgre-correlate-smoke.out)
	$(GO) test -bench='^BenchmarkKillRegistrant$$/^entries=6000$$' -benchtime=20x -run '^$$' ./internal/services \
		| tee /tmp/jgre-kill-smoke.out
	@$(call bench_gate,BenchmarkKillRegistrant/entries=6000,/tmp/jgre-kill-smoke.out)
	$(GO) test -bench='^BenchmarkDevice(Boot|Clone)$$' -benchtime=400x -benchmem -run '^$$' . \
		| tee /tmp/jgre-clone-smoke.out
	@awk -F '[:,]' 'FNR == NR { if ($$1 ~ /"clone_bytes_per_op"/) jb = $$2 + 0; if ($$1 ~ /"clone_allocs_per_op"/) ja = $$2 + 0; next } \
		/^BenchmarkDeviceClone/ { n = split($$0, f, /[ \t]+/); for (i = 2; i <= n; i++) { if (f[i] == "B/op") b = f[i-1] + 0; if (f[i] == "allocs/op") a = f[i-1] + 0 } } \
		END { if (!jb || !ja) { print "bench-smoke: BENCH_parallel.json has no clone_bytes_per_op/clone_allocs_per_op (make bench-json)"; exit 1 } \
			if (!b || !a) { print "bench-smoke: BenchmarkDeviceClone did not run"; exit 1 } \
			if (b > jb * 1.05 || a > ja * 1.05) { printf "bench-smoke: device clone %d B/op, %d allocs/op exceeds 5%% over BENCH_parallel.json (%d B/op, %d allocs/op)\n", b, a, jb, ja; exit 1 } \
			printf "bench-smoke: device clone %d B/op, %d allocs/op (BENCH_parallel.json %d, %d; gate +5%%)\n", b, a, jb, ja }' \
		BENCH_parallel.json /tmp/jgre-clone-smoke.out
	$(GO) test -bench='^BenchmarkSoftReboot$$' -benchtime=1x -run '^$$' ./internal/device
	$(GO) test -bench='^BenchmarkTransactLogged$$' -benchtime=2000x -run '^$$' ./internal/binder \
		| tee /tmp/jgre-hotpath-smoke.out
	@$(call bench_gate,BenchmarkTransactLogged/unbounded BenchmarkTransactLogged/ring-flood,/tmp/jgre-hotpath-smoke.out)
	$(GO) test -bench='^BenchmarkFleet$$' -benchtime=2x -run '^$$' ./internal/fleet \
		| tee /tmp/jgre-fleet-smoke.out
	@awk '/^BenchmarkFleet\/recycle/ { for (i = 1; i <= NF; i++) if ($$i == "devices/sec") rec = $$(i-1) + 0 } \
		/^BenchmarkFleet\/clone/ { for (i = 1; i <= NF; i++) if ($$i == "devices/sec") cl = $$(i-1) + 0 } \
		END { if (!rec || !cl) { print "bench-smoke: fleet slot-mode benchmarks did not run"; exit 1 } \
			ratio = rec / cl; \
			if (ratio < 2) { printf "bench-smoke: fleet recycle only %.2fx clone-per-device throughput (want >= 2x)\n", ratio; exit 1 } \
			printf "bench-smoke: fleet recycle %.1fx clone-per-device throughput\n", ratio }' \
		/tmp/jgre-fleet-smoke.out

# Coverage floors. The telemetry registry's zero-alloc counters and
# Prometheus renderer are pure library code every layer leans on, so
# they stay at >= 85% statement coverage. The chaos engine and
# supervisor gate every recovery claim the chaos-* scenarios make, so
# their fault-schedule and backoff paths stay at >= 75%; likewise the
# fleet engine's chunking/merge/slot-mode paths back every fleet-*
# rollup, so internal/fleet holds >= 75%. The trace package (recorder
# ring, ID minting, Chrome exporter) backs every byte-identity claim the
# tracing layer makes, so it holds >= 80%.
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

# Every Go file must be gofmt-clean.
fmt:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "fmt: gofmt -l reports:"; echo "$$files"; exit 1; }

ci: fmt vet build test race fuzz-smoke bench-smoke cover
