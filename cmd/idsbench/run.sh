#!/usr/bin/env bash
# Builds idsbench from this checkout and runs it from the repository
# root with the given flags, e.g.
#
#   bash cmd/idsbench/run.sh --workload quick --seed 11 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, temporary files, the Go
# toolchain's local telemetry (XDG_CONFIG_HOME), the binaries and the
# per-run work directories.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd "$root/cmd/idsbench" && go build -o "$out/bin/idsbench" .)
cd "$root"
exec "$out/bin/idsbench" "$@"
