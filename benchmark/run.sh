#!/usr/bin/env bash
# Build the benchmark from source, then run it with the arguments given:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
#   --check                                                     reduced-size self-check
# Fails before printing any result where the program's crates are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/hermes-benchmark" "$@"
