#!/usr/bin/env bash
# Pairs the serving benchmark on a parent commit against the working tree:
#
#   scripts/pair.sh PARENT [--pairs N] [--trace] [--expect-digest-change] -- <bench args>
#
# It exports PARENT (any commit name git accepts) into .bench_build/pair/parent
# with git archive (deleted again once built), builds both sides with bench/run.sh's recipe (build cache,
# go configuration and binaries under .bench_build/), then runs N alternating
# pairs (default 10) of the same bench arguments, parent first in odd pairs
# and change first in even ones. Each run's output lands in
# .bench_build/pair/runs/. go run ./internal/tools/pair then prints per
# workload and metric both sides' medians and quartiles, the change's wins
# and the bench/README.md "Noise" verdict, and fails on correct:false, on
# "input exhausted true", on a run without a result line, or on a verdict
# digest that moved (pass --expect-digest-change when the change means to
# move it). --trace adds one pair with --trace 1 and prints its per-layer
# metrics side by side. No process outlives the script.
#
# The bench arguments must name one --workload: a suite run prints no
# per-run result line. Example:
#
#   scripts/pair.sh HEAD~1 -- --workload light-fanout --seed 7 --seconds 16
set -euo pipefail
usage() { echo "usage: $0 PARENT [--pairs N] [--trace] [--expect-digest-change] -- <bench args>" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent=$(git rev-parse --verify "$1^{commit}")
shift
pairs=10 trace=0 cmp=()
while [ $# -gt 0 ]; do
	case $1 in
	--pairs) pairs=$2; shift 2 ;;
	--trace) trace=1; shift ;;
	--expect-digest-change) cmp+=(-expect-digest-change); shift ;;
	--) shift; break ;;
	*) usage ;;
	esac
done

root=$(git rev-parse --show-toplevel)
cd "$root"
out=$root/.bench_build
dir=$out/pair
rm -rf "$dir"
mkdir -p "$dir/parent" "$dir/runs" "$out/tmp" "$out/config/go/telemetry"
git archive "$parent" | tar -x -C "$dir/parent"
# bench/run.sh's recipe: everything under .bench_build/, telemetry off (its
# upload child would outlive the build), the local toolchain only. The
# exported tree has no .git, so VCS stamping is off on both sides alike.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
echo off > "$out/config/go/telemetry/mode"
(cd "$dir/parent" && go build -o "$dir/bench-parent" ./bench)
# The exported sources are not needed past the build, and a second copy of
# the tree in the checkout would trip the Makefile's source greps.
rm -rf "$dir/parent"
go build -o "$dir/bench-change" ./bench
echo "# pair: parent $parent against the working tree at $(git rev-parse HEAD), $pairs pairs: $*"

# run SIDE NAME ARGS... runs one side's benchmark into runs/NAME-SIDE.txt;
# a failing run is kept (the comparator reports it), not fatal.
run() {
	local side=$1 name=$2
	shift 2
	echo "# $name $side"
	"$dir/bench-$side" "$@" > "$dir/runs/$name-$side.txt" 2>&1 || echo "# $name $side exited $?"
}
files=()
for i in $(seq -w 1 "$pairs"); do
	if [ $((10#$i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do run "$side" "$i" "$@"; done
	files+=("$dir/runs/$i-parent.txt" "$dir/runs/$i-change.txt")
done
status=0
go run ./internal/tools/pair ${cmp[@]+"${cmp[@]}"} "${files[@]}" || status=$?
if [ "$trace" = 1 ]; then
	run parent traced "$@" --trace 1
	run change traced "$@" --trace 1
	go run ./internal/tools/pair ${cmp[@]+"${cmp[@]}"} "$dir/runs/traced-parent.txt" "$dir/runs/traced-change.txt" || status=$?
fi
exit $status
