# Mirrors .github/workflows/ci.yml so `make check` reproduces CI locally.

GO ?= go

.PHONY: check vet lint vet-baseline-empty stack-budget race-analysis build cross-build perfbench-build test bench-once race chaos fuzz-smoke replay-smoke triage-smoke trace-smoke monitor-smoke bench experiments-output perf-gate

check: vet lint vet-baseline-empty stack-budget build cross-build perfbench-build test bench-once race race-analysis chaos fuzz-smoke replay-smoke triage-smoke trace-smoke monitor-smoke

# vet runs the toolchain vet plus the full csecg-vet v3 suite (interval
# rangecheck and stackcheck included) with no baseline: the tree itself
# must be clean.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/csecg-vet ./...

# lint runs the paper-constraint analyzers (no-FPU mote path and
# zero-alloc hot loops — both transitive through the call graph —
# RAM/flash budgets, determinism, dropped errors, mutexes held across
# blocking calls, goroutine shutdown paths, metric naming/export, and
# the v3 interval engine: rangecheck overflow proofs and stackcheck
# worst-case stack bounds) against the committed baseline, and fails
# on any Go file gofmt would rewrite.
lint:
	$(GO) run ./cmd/csecg-vet -baseline vet-baseline.json ./...
	@unformatted="$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go'))"; \
		test -z "$$unformatted" || { echo "gofmt needs to rewrite:"; echo "$$unformatted"; exit 1; }

# stack-budget fails if the machine-computed worst-case device stack
# exceeds the RAMStackMisc ledger line (DESIGN.md §15). The -stack-report
# run prints the per-entry-point bounds for the build log.
stack-budget:
	$(GO) run ./cmd/csecg-vet -stack-report ./...
	$(GO) test -run TestStackBoundCoversLedger -v ./internal/analysis/

# race-analysis runs the analyzer suite (including the whole-module
# clean gate and the stack-bound pin, which -short skips) under the race
# detector.
race-analysis:
	$(GO) test -race ./internal/analysis/...

# The committed baseline must stay empty: csecg-vet -write-baseline
# exists for bisecting and bootstrapping new analyzers, but no finding
# may ship suppressed.
vet-baseline-empty:
	@test "$$(tr -d '[:space:]' < vet-baseline.json)" = "[]" || \
		{ echo "vet-baseline.json suppresses findings; fix or waive them in-tree"; exit 1; }

build:
	$(GO) build ./...

# cross-build vets the tree for arm64 and builds it for 386, so the Go
# fallbacks of the amd64 AVX2 kernels (the *_other.go files) and their
# build constraints keep compiling; amd64 go vet's asmdecl check already
# covers the assembly frame layouts. It then tests the packages with an
# AVX2 dispatch site on 386, where every one takes its Go loop, so the
# fallbacks run under their tests too (about 20 s on 2 vCPUs).
cross-build:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/linalg ./internal/solver ./internal/sensing ./internal/wavelet

# perfbench-build vets, builds and tests the nested _perfbench module,
# which the root ./... pattern skips: an export it uses that disappears
# would otherwise break only the benchmark. The tests run without
# -short, so TestTracedDecodeReproducesReference checks that the traced
# rebuild (solver.FISTA and FISTAContinuation) and core.Decoder (its
# solver.Workspace) decode bit for bit alike. The binary goes to
# /dev/null; a bare `go build ./...` there would leave one behind.
perfbench-build:
	cd _perfbench && GOFLAGS= GOWORK=off $(GO) vet ./... && \
		GOFLAGS= GOWORK=off $(GO) build -o /dev/null . && \
		GOFLAGS= GOWORK=off $(GO) test ./...

test:
	$(GO) test ./...

# bench-once runs every benchmark for a single iteration, so a benchmark
# that panics or fails its own checks breaks the build instead of waiting
# for someone to time it.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Race instrumentation slows the FISTA-heavy experiment-shape tests past
# any reasonable timeout; they run un-instrumented in `test` and skip
# themselves under -short. The decode-path allocation tests run here too.
# The shared-operator test then repeats under -race: goroutines share
# the read-only Φ and filter taps while each owns its Compose and
# Transform scratch, and a write to anything shared would show up here
# as a data race.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=10 -run TestSharedOperatorsConcurrent ./internal/wavelet/

# chaos runs the survival-layer acceptance matrix (bit flips, burst
# loss, mote reboot, CPU slowdown, decode panics, clock drift) at CI
# smoke size; it exits nonzero on any survival-contract violation.
chaos:
	$(GO) run ./cmd/csecg-bench -exp chaos -short

fuzz-smoke:
	$(GO) test -fuzz=FuzzPacketStream -fuzztime=10s -run=FuzzPacketStream ./internal/core
	$(GO) test -fuzz=FuzzUnmarshalPacket -fuzztime=10s -run=FuzzUnmarshalPacket ./internal/core
	$(GO) test -fuzz=FuzzParseBundle -fuzztime=10s -run=FuzzParseBundle ./internal/blackbox
	$(GO) test -fuzz=FuzzFISTAStepDecisions -fuzztime=10s -run=FuzzFISTAStepDecisions ./internal/solver
	$(GO) test -fuzz=FuzzDecodeMatchesSerial -fuzztime=10s -run=FuzzDecodeMatchesSerial ./internal/huffman

# replay-smoke closes the incident-forensics loop end to end: run the
# chaos matrix with the flight recorder sealing diagnostics bundles,
# then replay every sealed bundle through the real receiver + solver
# stack and fail on any divergence from the record (DESIGN.md §13).
replay-smoke:
	rm -rf bundles-smoke
	$(GO) run ./cmd/csecg-bench -exp chaos -short -record-dir bundles-smoke
	@ls bundles-smoke/*.jsonl >/dev/null 2>&1 || { echo "replay-smoke: chaos run sealed no bundles"; exit 1; }
	$(GO) run ./cmd/csecg-replay -v bundles-smoke/*.jsonl

# triage-smoke closes the latency-attribution loop: run the burst-loss
# chaos matrix with causal span tracing, pipe the trace JSONL into
# csecg-triage, and fail if any window's per-stage span durations
# diverge from its end-to-end decode latency (DESIGN.md §14).
triage-smoke:
	rm -f traces-smoke.jsonl
	$(GO) run ./cmd/csecg-bench -exp chaos -short -spans traces-smoke.jsonl
	$(GO) run ./cmd/csecg-triage traces-smoke.jsonl

# trace-smoke renders the transport experiment's span trees as a Chrome
# trace plus a metrics dump; csecg-bench fails if any session lost a
# tree to the retention cap (DESIGN.md §9). The same trees as trace
# JSONL go through csecg-triage, so the tiling check also covers
# RunStream's timeline (DESIGN.md §14).
trace-smoke:
	rm -f trace-smoke.jsonl
	$(GO) run ./cmd/csecg-bench -exp transport -seconds 6 -trace trace-smoke.json -metrics metrics-smoke.prom -spans trace-smoke.jsonl
	$(GO) run ./cmd/csecg-triage trace-smoke.jsonl

# monitor-smoke serves one burst-lossy NACK session through the monitor
# plane, waits for it to finish and checks every endpoint against the
# final state; the last /sessions body is left in sessions.json. The
# server binary is built first so that the kill reaches it.
monitor-smoke:
	@mkdir -p .bench_build
	$(GO) build -o .bench_build/csecg-monitor ./cmd/csecg-monitor
	@set -e; \
	.bench_build/csecg-monitor -listen 127.0.0.1:9102 -records 100 -seconds 8 -burst 0.05 -nack -slo-events slo.jsonl & \
	MON=$$!; trap 'kill $$MON 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 120); do curl -sf http://127.0.0.1:9102/healthz >/dev/null 2>&1 && break; sleep 0.5; done; \
	for i in $$(seq 1 120); do curl -sf http://127.0.0.1:9102/sessions | grep -q '"finished": true' && break; sleep 0.5; done; \
	curl -sf http://127.0.0.1:9102/healthz; \
	curl -s  http://127.0.0.1:9102/readyz; \
	curl -sf http://127.0.0.1:9102/sessions | tee sessions.json; \
	grep -q '"finished": true' sessions.json || { echo "session never finished"; exit 1; }; \
	curl -sf http://127.0.0.1:9102/metrics | grep -q 'quality_windows_total{session=' || { echo "missing session-labeled metrics"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# experiments-output regenerates every experiment table and fails if
# any differs from the committed experiments_output.txt. csecg-bench
# prints only the deterministic tables on stdout; run times and measured
# host times go to stderr. About 3 minutes on 2 vCPUs.
experiments-output:
	@mkdir -p .bench_build
	$(GO) run ./cmd/csecg-bench -exp all > .bench_build/experiments_output.txt
	cmp experiments_output.txt .bench_build/experiments_output.txt

# perf-gate runs the paired stream-benchmark gate of the working tree
# against BASE (make perf-gate BASE=origin/main) and writes its JSON
# summary to .bench_build/perf-gate/summary.json; see
# scripts/perf-gate.sh. About 7 minutes on 2 vCPUs.
perf-gate:
	bash scripts/perf-gate.sh $(BASE)
