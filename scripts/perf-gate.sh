#!/usr/bin/env bash
# Paired performance gate. Runs the stream benchmark (_perfbench, the
# command BENCHMARK.json names) on BASE and on this checkout's working
# tree, in PAIRS pairs per workload that alternate which side runs first,
# and prints one JSON summary on stdout:
#
#   scripts/perf-gate.sh BASE        # BASE: any commit, e.g. origin/main
#
# For every workload and end-to-end metric the summary lists both sides'
# runs, their medians and quartiles, and how many pairs the change won,
# lost and tied. It then adds one traced (--trace 1) run per side and
# workload, whose per-layer figures _perfbench/layers.json names; those
# are recorded, not gated.
#
# The gate fails (exit 1) when any run is not "correct": true or reports
# failures, or when on a GATED metric of a GATED_WORKLOADS workload the
# change is worse than BASE in at least nine tenths of the pairs (ties
# count for neither side). encode-ingest is recorded, not gated: on code
# it does not run, a layout shift alone moved its window_ms_p50 by about
# 7 %. Wall time is only ever compared within one job on one host: a
# figure captured on another machine does not enter the verdict. Exit 2
# is a usage error.
#
# BASE is unpacked with git archive under .bench_build/perf-gate, and
# each side builds its own benchmark there with _perfbench/run.sh.
set -euo pipefail

PAIRS=10
RUN_SECONDS=5
WORKLOADS=(stream-cr50 lossy-cr80 encode-ingest)
GATED='["sessions_per_core","window_ms_p50"]'
GATED_WORKLOADS='["stream-cr50","lossy-cr80"]'

if [ $# -ne 1 ]; then
	echo "usage: scripts/perf-gate.sh BASE" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base_rev="$(git -C "$root" rev-parse --verify --quiet "$1^{commit}")" ||
	{ echo "perf-gate: $1 is not a commit" >&2; exit 2; }
change_rev="$(git -C "$root" rev-parse HEAD)"
dirty=false
[ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ] || dirty=true

work="$root/.bench_build/perf-gate"
rm -rf "$work"
mkdir -p "$work/base" "$work/runs"
trap 'rm -rf "$work/base"' EXIT
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"

# bench SIDE PAIR WORKLOAD SEED TRACE runs one benchmark process and files
# its result line, tagged, under $work/runs. A run that dies before its
# result line is filed as incorrect.
bench() {
	local side=$1 pair=$2 wl=$3 seed=$4 trace=$5 dir=$root
	[ "$side" = base ] && dir="$work/base"
	local log="$work/runs/$side-$wl-$pair-$trace.log"
	echo "perf-gate: $wl $side, pair $pair" >&2
	bash "$dir/_perfbench/run.sh" --workload "$wl" --seed "$seed" \
		--seconds "$RUN_SECONDS" --trace "$trace" >"$log" 2>&1 || true
	tail -n 1 "$log" | jq -c . 2>/dev/null ||
		echo '{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
}

results="$work/runs/results.jsonl"
: >"$results"
for ((p = 0; p < PAIRS; p++)); do
	order=(base change)
	((p % 2 == 0)) || order=(change base)
	for wl in "${WORKLOADS[@]}"; do
		for side in "${order[@]}"; do
			bench "$side" "$p" "$wl" "$((p + 1))" 0 |
				jq -c --arg side "$side" --argjson pair "$p" --arg wl "$wl" \
					'{side: $side, pair: $pair, workload: $wl, trace: false, result: .}' >>"$results"
		done
	done
done
for wl in "${WORKLOADS[@]}"; do
	for side in base change; do
		bench "$side" trace "$wl" 1 1 |
			jq -c --arg side "$side" --arg wl "$wl" \
				'{side: $side, pair: null, workload: $wl, trace: true, result: .}' >>"$results"
	done
done

jq -s --slurpfile bm "$root/BENCHMARK.json" --argjson gated "$GATED" --argjson gatedwl "$GATED_WORKLOADS" \
	--arg base "$base_rev" --arg change "$change_rev" --argjson dirty "$dirty" \
	--argjson pairs "$PAIRS" --argjson seconds "$RUN_SECONDS" '
def vals: map(select(. != null));
def q($f): sort | .[(length - 1) * $f | floor] as $lo | .[(length - 1) * $f | ceil] as $hi | ($lo + $hi) / 2;
($bm[0].end_to_end | map({key: .name, value: .}) | from_entries) as $e2e
| . as $runs
| [$runs[] | select(.result.correct != true or .result.failed > 0)
    | "\(.workload) \(.side) \(if .trace then "trace" else "pair \(.pair)" end): correct \(.result.correct), failed \(.result.failed)"] as $failures
| ([$runs[].workload] | unique | map(. as $wl | {key: $wl, value: (
    [$runs[] | select(.workload == $wl)] as $w
    | [$w[] | select(.trace | not)] as $paired
    | {
        metrics: ($e2e | keys | map(. as $m | select(any($paired[]; .result.metrics[$m] != null)) | {key: $m, value: (
          ([$paired[] | select(.side == "base")] | sort_by(.pair) | map(.result.metrics[$m].value)) as $b
          | ([$paired[] | select(.side == "change")] | sort_by(.pair) | map(.result.metrics[$m].value)) as $c
          | (if $e2e[$m].better == "higher" then 1 else -1 end) as $sign
          | [range(0; [$b, $c] | map(length) | min) | select($b[.] != null and $c[.] != null) | ($c[.] - $b[.]) * $sign] as $d
          | {
              unit: $e2e[$m].unit, better: $e2e[$m].better,
              gated: (($gated | index($m) != null) and ($gatedwl | index($wl) != null)),
              base: $b, change: $c,
              base_median: ($b | vals | q(0.5)), change_median: ($c | vals | q(0.5)),
              base_quartiles: ($b | vals | [q(0.25), q(0.75)]),
              change_quartiles: ($c | vals | [q(0.25), q(0.75)]),
              change_wins: ($d | map(select(. > 0)) | length),
              change_losses: ($d | map(select(. < 0)) | length),
              ties: ($d | map(select(. == 0)) | length)
            }
            | .regressed = (.gated and .change_losses * 10 >= $pairs * 9)
          )}) | from_entries),
        trace: ([$w[] | select(.trace)] | map({key: .side, value: .result.metrics}) | from_entries)
      }
  )}) | from_entries) as $workloads
| {
    base: $base, change: $change, change_dirty: $dirty,
    pairs: $pairs, seconds_per_run: $seconds, seeds: "pair i runs seed i+1 on both sides; traces run seed 1",
    gated: $gated, gated_workloads: $gatedwl,
    rule: "fail when a gated metric of a gated workload is worse in at least 9/10 of the pairs, or any run is incorrect or reports failures",
    workloads: $workloads,
    failures: ($failures + [$workloads | to_entries[] | .key as $wl | .value.metrics | to_entries[]
      | select(.value.regressed) | "\($wl) \(.key): change worse in \(.value.change_losses) of \($pairs) pairs"])
  }
| .pass = (.failures | length == 0)
' "$results" >"$work/summary.json"

cat "$work/summary.json"
if [ "$(jq .pass "$work/summary.json")" != true ]; then
	jq -r '.failures[] | "perf-gate: FAIL " + .' "$work/summary.json" >&2
	exit 1
fi
echo "perf-gate: pass" >&2
