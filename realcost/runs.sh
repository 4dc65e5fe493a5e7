#!/usr/bin/env bash
# Runs the benchmark once per seed and appends each run's JSON result line
# to a file, for the comparer. Run from the repository root:
#
#   bash realcost/runs.sh <workload> <trace 0|1> <first-seed> <runs> <out.jsonl> [seconds]
#
# A run that fails its correctness checks still appends its line (with
# "correct": false) and the script carries on with the next seed.
set -uo pipefail

if [ $# -lt 5 ]; then
	echo "usage: $0 workload trace first-seed runs out.jsonl [seconds]" >&2
	exit 2
fi
workload=$1 trace=$2 first=$3 runs=$4 out=$5 seconds=${6:-}
if [ -z "$seconds" ]; then
	seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
for ((seed = first; seed < first + runs; seed++)); do
	bash realcost/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
		tail -n 1 >>"$out"
done
