#!/usr/bin/env bash
# Builds the benchmark offline and runs it; see README.md.
#   benchmark/run.sh                      full set, fixed work, all passes
#   benchmark/run.sh --self-check         two sets back to back, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload, result line last
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Artifacts go where the caller says, else into the root workspace's
# target/ (same crates, same profile: the compiled dependencies are
# shared with a root build).
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/dumbnet-benchmark" "$@"
