#!/usr/bin/env bash
# Writes every report the byte-identity gates compare into one directory.
#
#   scripts/reports.sh BIN OUT JOBS
#
# BIN is an `ftcoma` binary, OUT a new or empty directory to fill and
# JOBS the worker count of every command that takes --jobs. One build run
# at two JOBS values, or two builds run at one, must give directories that
# `diff -ru` finds identical. The spec files come from this script's
# checkout, so both sides of a merge-base diff read the same specs.
# Wall-clock lives in the *.timing.json sidecars, which are deleted. Any
# failing command (an oracle failure in a chaos sweep, an invariant
# violation in a campaign) stops the script with its exit code; shrunk
# counterexamples land in OUT.
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: $0 BIN OUT JOBS" >&2
  exit 2
fi
bin=$1 out=$2 jobs=$3
specs=$(cd "$(dirname "$0")/../specs" && pwd)
# A report left by an earlier run would join the diff unseen.
if [ -n "$(ls -A "$out" 2>/dev/null)" ]; then
  echo "$0: $out is not empty" >&2
  exit 2
fi
mkdir -p "$out"

# Fault-free, node faults, interconnect faults (link cut, router down,
# message loss), every workload preset, continuous faults with repairs
# (repair drains, stream reclaim).
for spec in smoke determinism net-faults presets soak; do
  "$bin" campaign --spec "$specs/$spec.json" --jobs "$jobs" --out "$out/campaign-$spec.json"
done

# Chaos sweeps (docs/CHAOS.md): the default lifecycle sweep; nested faults
# (recovery restarts); interconnect faults (retransmission, duplicate
# suppression, escalation); continuous fault processes; and the
# full-length mix that perfbench's chaos_mix workload runs.
chaos() {
  local name=$1
  shift
  "$bin" chaos "$@" --jobs "$jobs" --out "$out/$name.json"
}
chaos chaos --seeds 4 --cases 200 --refs 4000
chaos chaos-nested --seeds 2 --cases 200 --refs 4000 --nested
chaos chaos-net --seeds 2 --cases 200 --refs 4000 --net-faults
chaos chaos-soak --seeds 2 --cases 120 --refs 4000 --soak
chaos chaos-mix --seeds 4 --cases 200 --nested --net-faults --soak --refs 8000

"$bin" sweep --workload water --nodes 9 --refs 20000 --warmup 10000 \
  --freqs 400,200,100 --jobs "$jobs" >"$out/sweep.txt"

# One faulted 9-node run with every export, and the summary read back
# from its spans.
"$bin" run --workload mp3d --nodes 9 --freq 200 \
  --fail-at 25000 --fail-kind transient --fail-node 2 \
  --metrics-out "$out/metrics.json" --trace-out "$out/trace.json" \
  --trace-jsonl "$out/trace.jsonl" --spans-out "$out/spans.jsonl" \
  --timeseries-out "$out/timeseries.jsonl" --timeseries-every 10000 \
  >"$out/run.txt"
"$bin" trace summarize --spans "$out/spans.jsonl" --top 5 >"$out/summarize.txt"

# A traced 16-node Mp3d run with a permanent failure: one recovery, ~700k
# Chrome rows and 24.6k span roots (~140 MB of exports).
"$bin" run --workload mp3d --nodes 16 --freq 400 --verify \
  --fail-at 400000 --fail-kind permanent --fail-node 5 \
  --metrics-out "$out/t16-metrics.json" --trace-out "$out/t16-trace.json" \
  --trace-jsonl "$out/t16-trace.jsonl" --spans-out "$out/t16-spans.jsonl" \
  --timeseries-out "$out/t16-timeseries.jsonl" >"$out/t16-run.txt"

# The CLI's text reports: a standard/ECP twin, Table 2's latencies from
# hand-placed scenarios, and continuous node and link fault processes.
"$bin" compare --workload mp3d --nodes 9 --refs 20000 --warmup 10000 \
  --freq 400 >"$out/compare.txt"
"$bin" latency >"$out/latency.txt"
"$bin" failure --workload water --nodes 8 --refs 20000 --warmup 0 \
  --kind continuous --node-mtbf 60000 --node-mttr 9000 \
  --link-mtbf 80000 --link-mttr 7000 >"$out/failure-continuous.txt"

# Wormhole switching with a dead centre router, whose detours are the
# only input that runs SwitchingModel::Wormhole.
"$bin" run --workload mp3d --nodes 9 --freq 200 --wormhole \
  --fail-at 25000 --fail-kind permanent --fail-node 4 \
  --metrics-out "$out/wormhole-metrics.json" \
  --spans-out "$out/wormhole-spans.jsonl" >"$out/wormhole-run.txt"

rm -f "$out"/*.timing.json
