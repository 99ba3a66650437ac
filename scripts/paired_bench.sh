#!/usr/bin/env bash
# Paired A/B comparison of two revisions on the end-to-end benchmark — the
# protocol every performance PR reports in CHANGES.md, as one command:
#
#   scripts/paired_bench.sh <ref-a> <ref-b> [--pairs 10] [--workload NAME]...
#                           [--seconds 32] [--seed 7] [--quick] [--keep DIR]
#
# Each ref is exported (git archive) into its own directory and built into its
# own CARGO_TARGET_DIR with --offline, so neither side ever runs the other's
# code or the working tree's. Every pair runs both sides back to back on the
# same workload and seed, alternating which side goes first (the box drifts
# by minutes; only neighbours in time are comparable). Per workload and
# end-to-end metric it prints each side's median and Q1..Q3, how many pairs
# <ref-b> won, the two-sided sign-test p-value over the untied pairs, and a
# verdict by the house rule (docs: /benchmark/README.md, BENCHMARK.json):
#
#   better / worse  at least ten untied pairs, b won (lost) at least 9 in 10 of
#                   them AND the medians differ by more than a's own Q1..Q3
#                   spread
#   within bound    not that, and b's median is no worse than a's by more
#                   than the metric's bound in BENCHMARK.json
#   REGRESSED       b's median is worse than a's by more than the bound
#
# A run that answers wrongly or fails an operation aborts the comparison.
# Without --workload the three gated workloads run. --quick passes the
# benchmark's two-round smoke size through: a plumbing check, not a
# measurement (CI runs `HEAD HEAD --pairs 1 --quick`).
set -euo pipefail

die() { echo "paired_bench: $*" >&2; exit 2; }

pairs=10 seconds=32 seed=7 quick="" keep=""
workloads=() refs=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
        --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
        --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
        --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
        --quick) quick="--quick"; shift ;;
        --keep) keep="${2:?--keep needs a directory}"; shift 2 ;;
        -h|--help) sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'; exit 0 ;;
        -*) die "unknown option '$1'" ;;
        *) refs+=("$1"); shift ;;
    esac
done
[ "${#refs[@]}" -eq 2 ] || die "usage: $0 <ref-a> <ref-b> [--pairs N] [--workload NAME]... (see --help)"
[ "$pairs" -ge 1 ] 2>/dev/null || die "--pairs must be a positive count"
[ "${#workloads[@]}" -gt 0 ] || workloads=(s2t_analytic qut_serve sharded_mixed)

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
if [ -n "$keep" ]; then
    mkdir -p "$keep"; work="$(cd "$keep" && pwd)"
else
    work="$(mktemp -d "${TMPDIR:-/tmp}/paired-bench.XXXXXX")"
    trap 'rm -rf "$work"' EXIT
fi

# Export and build both sides before anything is timed.
sha=()
for side in a b; do
    ref="${refs[$([ $side = a ] && echo 0 || echo 1)]}"
    commit="$(git -C "$repo" rev-parse --verify --quiet "$ref^{commit}")" || die "'$ref' is not a commit"
    sha+=("$commit")
    rm -rf "$work/$side" && mkdir -p "$work/$side"
    git -C "$repo" archive "$commit" | tar -x -C "$work/$side"
    echo "paired_bench: building $side = $ref (${commit:0:12})" >&2
    CARGO_TARGET_DIR="$work/target-$side" bash "$work/$side/benchmark/run.sh" contract > /dev/null
done

# One run of one side: prints the result line's five `name value` pairs.
run_side() { # side workload
    local out
    out="$(cd "$work/$1" && CARGO_TARGET_DIR="$work/target-$1" bash benchmark/run.sh \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 $quick 2> "$work/$1.stderr" | tail -n 1)" \
        || { cat "$work/$1.stderr" >&2; die "side $1 failed on $2 (wrong answer or failed operation)"; }
    case "$out" in *'"correct":true'*'"failed":0'*) ;; *) die "side $1 on $2: $out" ;; esac
    echo "$out" | grep -o '"[a-z_0-9]*":{"value":[-0-9.e+]*' | sed 's/"\([a-z_0-9]*\)":{"value":/\1 /'
}

# `name better bound` per end-to-end metric, from side b's BENCHMARK.json.
contract="$(grep '"bound"' "$work/b/BENCHMARK.json" \
    | sed 's/.*"name": *"\([a-z_0-9]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/')"
[ -n "$contract" ] || die "no end-to-end metrics found in BENCHMARK.json"

echo "a = ${refs[0]} (${sha[0]:0:12})   b = ${refs[1]} (${sha[1]:0:12})"
echo "pairs $pairs, seed $seed, seconds $seconds${quick:+, QUICK (smoke sizes: not a measurement)}, $(nproc) cores"
for workload in "${workloads[@]}"; do
    : > "$work/samples"
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
        for side in $order; do
            echo "paired_bench: $workload pair $pair/$pairs side $side" >&2
            run_side "$side" "$workload" | sed "s/^/$pair $side /" >> "$work/samples"
        done
    done
    echo
    printf '%-14s %-22s %30s %30s %7s %8s  %s\n' "$workload" metric "a: median (Q1..Q3)" "b: median (Q1..Q3)" "b wins" "sign p" verdict
    echo "$contract" | while read -r metric better bound; do
        for side in a b; do
            awk -v m="$metric" -v s="$side" '$2 == s && $3 == m { print $4 }' "$work/samples" | sort -g > "$work/$side.sorted"
        done
        awk -v m="$metric" '$3 == m { v[$1, $2] = $4; if ($1 > n) n = $1 }
            END { for (p = 1; p <= n; p++) print v[p, "a"], v[p, "b"] }' "$work/samples" > "$work/paired"
        awk -v metric="$metric" -v better="$better" -v bound="$bound" -v fa="$work/a.sorted" -v fb="$work/b.sorted" '
            # Linear-interpolated quantile of a sorted array x[1..n].
            function quantile(x, n, q,    pos, lo, frac) {
                pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
                return lo >= n ? x[n] : x[lo] + frac * (x[lo + 1] - x[lo])
            }
            function choose(n, k,    r, i) { r = 1; for (i = 1; i <= k; i++) r = r * (n - k + i) / i; return r }
            BEGIN {
                while ((getline line < fa) > 0) a[++na] = line + 0
                while ((getline line < fb) > 0) b[++nb] = line + 0
            }
            { if ($2 == $1) next
              untied++
              if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++ }
            END {
                ma = quantile(a, na, 0.5); mb = quantile(b, nb, 0.5)
                spread = quantile(a, na, 0.75) - quantile(a, na, 0.25)
                # Two-sided sign test over the untied pairs.
                k = wins > untied - wins ? wins : untied - wins
                for (i = k; i <= untied; i++) tail += choose(untied, i)
                p = untied ? 2 * tail / 2 ^ untied : 1; if (p > 1) p = 1
                gain = better == "lower" ? ma - mb : mb - ma            # > 0: b is better
                worse_by = ma != 0 ? -gain / (ma < 0 ? -ma : ma) : 0
                if (untied >= 10 && wins >= 0.9 * untied && gain > spread) verdict = "better"
                else if (untied >= 10 && untied - wins >= 0.9 * untied && -gain > spread) verdict = worse_by > bound ? "REGRESSED (worse)" : "worse, within bound"
                else if (worse_by > bound) verdict = "REGRESSED"
                else verdict = "within bound"
                printf "%-14s %-22s %12.4g (%.4g..%.4g) %12.4g (%.4g..%.4g) %4d/%-2d %8.3g  %s (%+.1f%%)\n", "", metric,
                    ma, quantile(a, na, 0.25), quantile(a, na, 0.75), mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75),
                    wins, untied, p, verdict, ma != 0 ? 100 * (mb - ma) / ma : 0
            }' "$work/paired"
    done
    if [ -n "$keep" ]; then cp "$work/samples" "$work/samples-$workload"; fi
done
