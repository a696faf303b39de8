#!/usr/bin/env bash
# Builds the somrm end-to-end benchmark from the sources of this checkout
# and runs it. Every build product (the Go build cache, temporary files and
# the binary) stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload fig8-large --runs 5 --seconds 20
#
# Without the parent module (../go.mod) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
