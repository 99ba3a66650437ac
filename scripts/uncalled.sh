#!/usr/bin/env bash
# Public functions that no non-test code calls:
#
#   scripts/uncalled.sh <ref>
#
# Reads, as they are at <ref> (never the working tree), the .rs files under
# crates/*/src, crates/bench/benches, src/, examples/ and benchmark/src, and
# drops from each what scripts/loc.sh drops: comment-only lines and every
# item marked #[cfg(test)]. String literals and trailing `//` comments on a
# line are dropped too: a name in a message or a note is not a call. Then,
# for every `pub fn` / `pub(crate) fn` defined outside benchmark/ (which is
# frozen), it counts the occurrences of the function's name as a word that
# are not a definition (`fn <name>`). A `use` names a function, so a
# re-export counts. Names are matched, not paths, so a name shared with a
# called function counts as called.
#
# Prints each name with no occurrence, sorted, and a `#` reason after the
# ones on the allowlist below. Exits 1 if any printed name is not on it.
set -euo pipefail

die() { echo "uncalled.sh: $*" >&2; exit 2; }

# Names kept on purpose although nothing calls them, one reason each.
allowed() {
    case "$1" in
        partitions_of_kind) echo "PartitionStore: the copy-on-write test in hermes-core reads it" ;;
        expect_frame) echo "QueryOutcome: the documented test helper" ;;
        *) return 1 ;;
    esac
}

ref="${1:-}"
[ -n "$ref" ] || die "usage: $0 <ref>"
[ $# -eq 1 ] || die "usage: $0 <ref>"

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
commit="$(git -C "$repo" rev-parse --verify --quiet "$ref^{commit}")" || die "'$ref' is not a commit"

uncalled="$(
    git -C "$repo" ls-tree -r --name-only "$commit" -- crates src examples benchmark \
        | grep -E '^crates/[^/]+/src/.*\.rs$|^crates/bench/benches/.*\.rs$|^src/.*\.rs$|^examples/.*\.rs$|^benchmark/src/.*\.rs$' \
        | while read -r file; do
            git -C "$repo" show "$commit:$file" | awk -v frozen="${file#benchmark/}" -v file="$file" '
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
                    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
                    sub(/\/\/.*/, "", line)
                    if (frozen == file && match(line, /^pub(\(crate\))? +((const|unsafe|async) +)*fn +[A-Za-z_][A-Za-z0-9_]*/)) {
                        def = substr(line, RSTART, RLENGTH)
                        sub(/.* /, "", def)
                        print "D", def
                    }
                    gsub(/(^|[^A-Za-z0-9_])fn +[A-Za-z_][A-Za-z0-9_]*/, " ", line)
                    n = split(line, words, /[^A-Za-z0-9_]+/)
                    for (i = 1; i <= n; i++) if (words[i] != "") print "U", words[i]
                }'
        done \
        | awk '
            $1 == "D" { defined[$2] = 1 }
            $1 == "U" { used[$2] = 1 }
            END { for (name in defined) if (!(name in used)) print name }' \
        | sort
)"

status=0
for name in $uncalled; do
    if reason="$(allowed "$name")"; then
        echo "$name  # $reason"
    else
        echo "$name"
        status=1
    fi
done
exit "$status"
