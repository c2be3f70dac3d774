#!/usr/bin/env bash
# Builds sbwbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash cmd/sbwbench/run.sh --workload congest-grid --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build): the Go build
# cache, the binary, and the benchmark's scratch files. The build fails,
# and the script exits non-zero, when the library sources are absent.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/cmd/sbwbench" && go build -o "$out/sbwbench" .) >&2
if [ "${1:-}" = compare ]; then
	exec "$out/sbwbench" "$@"
fi
exec "$out/sbwbench" -workdir "$out/work" "$@"
