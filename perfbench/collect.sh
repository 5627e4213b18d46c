#!/usr/bin/env bash
# Runs the benchmark once per seed on each named workload and appends one
# JSON line per run to OUT: {"workload", "seed", "trace", "result"}, where
# result is the run's last output line. Two such files are what
# compare/ reads.
#
#   bash perfbench/collect.sh OUT SEEDS [TRACE] [WORKLOAD...]
#   bash perfbench/collect.sh base.jsonl "1 2 3 4 5 6 7 8 9 10"
set -euo pipefail
out=$1
seeds=$2
trace=${3:-0}
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(offline serve sweep)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for w in "${workloads[@]}"; do
	for s in $seeds; do
		line=$(bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" | tail -n 1)
		printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$w" "$s" "$trace" "$line" >>"$out"
	done
done
