#!/usr/bin/env bash
# Builds zenbench from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash zenbench/run.sh --workload dp-fwd64 --seed 1 --seconds 10 --trace 0
#
# "--workload all" as the first two arguments runs every workload in
# turn, each in its own process.
#
# Build outputs, the Go build cache and the toolchain's own state stay
# under .bench_build at the root of the tree.
set -euo pipefail
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$dir")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$dir" && go build -trimpath -o "$out/zenbench" .)
if [ "${1:-}" = --workload ] && [ "${2:-}" = all ]; then
	shift 2
	status=0
	for w in dp-fwd64 dp-nfchain fabric-reactive; do
		"$out/zenbench" --commit "$commit" --workload "$w" "$@" || status=1
	done
	exit $status
fi
exec "$out/zenbench" --commit "$commit" "$@"
