#!/usr/bin/env bash
# Builds the benchmark (release) from this checkout and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload mem-stream --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the benchmark's report goes to stdout, its
# last line one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
