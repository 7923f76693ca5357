#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the current checkout
# and runs it with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload paper-fct --seed 1 --seconds 30 --trace 0
#
# Every file the build or the run writes stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the campaign caches and
# the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root (go.mod and benchmark/go.mod must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off

(cd "$root/benchmark" && go build -o "$out/amrt-bench" .)

# "--workload all" runs every workload in turn, each in its own process so
# that peak_rss_mb stays per workload.
args=("$@")
for i in "${!args[@]}"; do
	if [[ ${args[$i]} == --workload && ${args[$((i + 1))]:-} == all ]]; then
		for w in paper-fct incast-chaos fabric-campaign; do
			args[$((i + 1))]=$w
			"$out/amrt-bench" --work-dir "$out/benchmark" "${args[@]}"
		done
		exit 0
	fi
done
exec "$out/amrt-bench" --work-dir "$out/benchmark" "$@"
