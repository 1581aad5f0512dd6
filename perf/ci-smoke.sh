#!/usr/bin/env bash
# Benchmark smoke: unit tests of the harness, then a 1/20-scale pass of
# every workload (plain and traced) that checks the result schema and
# the exactly-once reconciliation. Takes well under a minute after the
# build; the numbers it prints are not measurements.
#
# A later change can add `perf/ci-smoke.sh` as one line of scripts/ci.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q --release --offline --manifest-path perf/Cargo.toml
cargo run -q --release --offline --manifest-path perf/Cargo.toml -- --quick
