#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and the scratch files live under .bench_build/,
# results and traces under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOPROXY=off
# The go command keeps its telemetry and environment files under the user's
# configuration directory; point that inside the checkout as well.
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"

go -C "$here" build -o "$build/wbbench" .
cd "$root"
exec "$build/wbbench" "$@"
