#!/usr/bin/env bash
# Builds ttcserve and the serving benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash servebench/run.sh --workload ingest-sf16 --seed 1 --seconds 30 --trace 0
#
# Every build output, cache and run directory lives under .bench_build in
# the working directory, so the benchmark reads and writes nothing outside
# the checkout. Outside a full checkout (no go.mod or cmd/ttcserve at the
# root) the script exits non-zero without a result and without starting go.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/ttcserve || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the root of a full checkout (go.mod, cmd/ttcserve and servebench/ expected)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/config"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"

# Since Go 1.23 every go command may fork a detached telemetry process that
# outlives it. Turning telemetry off first (in the config directory above)
# keeps the builds from leaving any process behind; a go without the
# telemetry command forks none.
go telemetry off >/dev/null 2>&1 || true
go build -o "$out/bin/ttcserve" ./cmd/ttcserve >&2
(cd servebench && go build -o "$out/bin/servebench" .) >&2
# Flush the build's dirty pages now, so their writeback does not compete
# with the write-ahead log's fsyncs during the measurement.
sync
exec "$out/bin/servebench" -ttcserve "$out/bin/ttcserve" -workdir "$out/run" "$@"
