# Mirrors .github/workflows/ci.yml so `make check` reproduces CI locally.

GO ?= go

.PHONY: check vet lint vet-baseline-empty stack-budget race-analysis build test race chaos fuzz-smoke replay-smoke triage-smoke trace-smoke bench perf perf-gate

check: vet lint vet-baseline-empty stack-budget build test race race-analysis chaos fuzz-smoke replay-smoke triage-smoke trace-smoke

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
# worst-case stack bounds) against the committed baseline.
lint:
	$(GO) run ./cmd/csecg-vet -baseline vet-baseline.json ./...

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

test:
	$(GO) test ./...

# Race instrumentation slows the FISTA-heavy experiment-shape tests past
# any reasonable timeout; they run un-instrumented in `test` and skip
# themselves under -short.
race:
	$(GO) test -race -short ./...

# chaos runs the survival-layer acceptance matrix (bit flips, burst
# loss, mote reboot, CPU slowdown, decode panics, clock drift) at CI
# smoke size; it exits nonzero on any survival-contract violation.
chaos:
	$(GO) run ./cmd/csecg-bench -exp chaos -short

fuzz-smoke:
	$(GO) test -fuzz=FuzzPacketStream -fuzztime=10s -run=FuzzPacketStream ./internal/core
	$(GO) test -fuzz=FuzzUnmarshalPacket -fuzztime=10s -run=FuzzUnmarshalPacket ./internal/core
	$(GO) test -fuzz=FuzzParseBundle -fuzztime=10s -run=FuzzParseBundle ./internal/blackbox

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
# tree to the retention cap (DESIGN.md §9).
trace-smoke:
	$(GO) run ./cmd/csecg-bench -exp transport -seconds 6 -trace trace-smoke.json -metrics metrics-smoke.prom

bench:
	$(GO) test -bench=. -benchmem ./...

# perf writes the machine-readable perf-suite summary; perf-gate runs
# the CI regression comparison against the committed baseline (fails on
# >15% normalized growth — see internal/bench).
perf:
	$(GO) run ./cmd/csecg-bench -json BENCH_4.json

perf-gate:
	$(GO) run ./cmd/csecg-bench -compare BENCH_4.json
