#!/usr/bin/env bash
# Repeatability self-check: every workload twice with one seed and once with
# another; exact metrics must be bit-identical on the same seed, timing
# metrics must agree within their declared bound, the other seed must run
# correct. Prints the observed spread per metric. Arguments are passed on
# (`--seed <u64>`, `--seconds <s>`).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- --self-check "$@"
