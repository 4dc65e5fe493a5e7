#!/usr/bin/env bash
# Builds the real-cost benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash realcost/run.sh --workload update-durable --seed 1 --seconds 10 --trace 0
#   bash realcost/run.sh recover-check --seed 1
#
# Build outputs, the Go build cache and the benchmark's scratch files stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/realcost"

export GOCACHE=$out/go-cache
export GOPATH=$out/go-path
export GOMODCACHE=$out/go-path/pkg/mod
export XDG_CONFIG_HOME=$out/go-config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -C "$root/realcost" -o "$out/realcost/realcost" . >&2
case ${1:-} in
compare) exec "$out/realcost/realcost" "$@" ;;
recover-check)
	shift
	exec "$out/realcost/realcost" recover-check -work "$out/realcost" "$@"
	;;
esac
exec "$out/realcost/realcost" -work "$out/realcost" "$@"
