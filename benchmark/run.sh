#!/usr/bin/env bash
# Builds the real server binaries and the benchmark into one target directory
# (the build is not timed and reports on stderr), then runs the benchmark with
# the arguments given. Run from anywhere; the driver runs it from the root of
# a checkout with CARGO_TARGET_DIR set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p hermes-server -p hermes-coord --bins >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/hermes-benchmark" "$@"
