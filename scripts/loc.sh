#!/usr/bin/env bash
# Non-test Rust lines of one revision — the count the simplicity PRs report:
#
#   scripts/loc.sh <ref>            # the total
#   scripts/loc.sh <ref> --files    # one line per file, then the total
#
# Reads every .rs file under crates/*/src and crates/bench/benches as it is
# at <ref> (never the working tree) and counts the lines that are
#   * not blank,
#   * not comment-only (`//`, `///`, `//!`), and
#   * not inside an item marked #[cfg(test)] — from the attribute to the
#     brace that closes the item, or to the `;` that ends it.
# Braces inside string and character literals on one line are ignored; block
# comments (`/* */`) are counted as code. Compare two revisions with two runs.
set -euo pipefail

die() { echo "loc.sh: $*" >&2; exit 2; }

ref="${1:-}" files=""
[ -n "$ref" ] || die "usage: $0 <ref> [--files]"
case "${2:-}" in
    "") ;;
    --files) files=1 ;;
    *) die "unknown option '$2'" ;;
esac

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
commit="$(git -C "$repo" rev-parse --verify --quiet "$ref^{commit}")" || die "'$ref' is not a commit"

git -C "$repo" ls-tree -r --name-only "$commit" -- crates \
    | grep -E '^crates/[^/]+/src/.*\.rs$|^crates/bench/benches/.*\.rs$' \
    | while read -r file; do
        git -C "$repo" show "$commit:$file" | awk -v file="$file" '
            function braces(line,   opens, closes) {
                gsub(/"([^"\\]|\\.)*"/, "", line)
                gsub(/'"'"'([^'"'"'\\]|\\.)'"'"'/, "", line)
                opens = gsub(/\{/, "", line)
                closes = gsub(/\}/, "", line)
                return opens - closes
            }
            {
                line = $0
                sub(/^[ \t]+/, "", line)
                if (skipping) {
                    if (!opened && line ~ /;[ \t]*$/ && line !~ /\{/) { skipping = 0; next }
                    if (line ~ /\{/) opened = 1
                    depth += braces(line)
                    if (opened && depth <= 0) skipping = 0
                    next
                }
                if (line ~ /^#\[cfg\(test\)\]/) { skipping = 1; opened = 0; depth = 0; next }
                if (line == "" || line ~ /^\/\//) next
                n++
            }
            END { printf "%d %s\n", n, file }'
    done \
    | awk -v files="$files" '
        { total += $1; if (files) print }
        END { print total }'
