#!/usr/bin/env bash
# Builds simbench from source and runs it from the repository root,
# passing every argument through. The Go build cache, temporary files
# and the binary all live under .bench_build/, so a run writes nothing
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench && go build -buildvcs=false -o "$build/simbench" .)
exec "$build/simbench" "$@"
