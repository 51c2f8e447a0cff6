#!/usr/bin/env bash
# Builds the benchmark and the hummingbirdd daemon from this checkout's
# source, then runs one workload, or with "all" every workload untraced and
# then traced, each in a fresh process. Every build artefact, cache and
# temporary file stays under .bench_build/ in the checkout root.
#
#   bash hbbench/run.sh --workload cold_open_soc --seed 1 --seconds 30 --trace 0
#   bash hbbench/run.sh all --seed 1
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"

if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hummingbirdd" ]]; then
	echo "hbbench: $root is not a hummingbird checkout (no go.mod or cmd/hummingbirdd)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/go-cache" "$build/go-mod" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root" && go build -o "$build/bin/hummingbirdd" ./cmd/hummingbirdd) >&2
(cd "$here" && go build -o "$build/bin/hbbench" .) >&2

# The run header names the commit, or outside a git checkout a hash of the
# module's Go sources, so a result can be matched to the code it measured.
if [[ -e "$root/.git" ]] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD)"
else
	commit="tree-sha256:$(cd "$root" && find . \( -name .git -o -name .bench_build -o -name hbbench \) -prune \
		-o -type f \( -name '*.go' -o -name go.mod \) -print0 | LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)"
fi

bench=("$build/bin/hbbench" -daemon "$build/bin/hummingbirdd" -tmp "$build/tmp" -commit "$commit")
if [[ "${1:-}" == "all" ]]; then
	shift
	status=0
	for workload in cold_open_soc whatif_soc serve_des; do
		for trace in 0 1; do
			"${bench[@]}" --workload "$workload" --trace "$trace" "$@" || status=1
		done
	done
	exit "$status"
fi
exec "${bench[@]}" "$@"
