#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload devices-mix --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's span files all stay
# under .bench_build/ at the repository root, so nothing outside the
# checkout is written. The build needs the idivm module one directory up;
# without it the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/gopath" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOPATH="${out}/gopath" \
	GOMODCACHE="${out}/gopath/pkg/mod" XDG_CONFIG_HOME="${out}/config" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" -spans "${out}/spans" "$@"
