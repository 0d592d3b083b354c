#!/usr/bin/env bash
# Builds the benchmark and dsmserved from source, then runs one workload:
#
#   bash cmd/perfbench/run.sh --workload cells --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/dsmserved || ! -d testdata/golden ]]; then
	echo "perfbench: $root is not a dsmnc checkout (go.mod, cmd/dsmserved or testdata/golden missing)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=

go build -o "$out/dsmserved" ./cmd/dsmserved
(cd cmd/perfbench && go build -o "$out/perfbench" . && go build -o "$out/setupprobe" ./setupprobe)
exec "$out/perfbench" -root "$root" -dsmserved "$out/dsmserved" -setupprobe "$out/setupprobe" -work "$out" "$@"
