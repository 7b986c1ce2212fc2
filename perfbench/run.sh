#!/usr/bin/env bash
# Builds the reference-pipeline benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, and each run's
# temporary directory (removed when the run ends).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root holds no goldms module to build" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tmp "$out/tmp" "$@"
