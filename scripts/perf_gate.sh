#!/usr/bin/env bash
# Interleaved A/B timing gate on the benchmark's sweep-full workload.
#
#   scripts/perf_gate.sh PARENT_REV
#
# Builds the `benchmark/` command twice, from PARENT_REV (exported with
# `git archive`) and from the working tree, both at the same scratch path so
# that identical sources give identical binaries. Then runs sweep-full in
# PAIRS interleaved pairs of RUN_SECONDS-long runs, alternating which side
# runs first, so a change in the machine's speed lands on both sides of a
# pair alike. Each pair gives a change/parent ratio of wall_p50_ms and of
# cpu_ms. The gate fails when the median ratio of either exceeds
# 1 + TOLERANCE, or when a run fails a correctness check.
#
# TOLERANCE is set from the spread of A/A runs (the parent against itself);
# CHANGES.md records the measurement. Pair count, run length and tolerance
# are constants so that CI and a developer run the same gate.
set -euo pipefail

PAIRS=20
RUN_SECONDS=1
TOLERANCE=0.10
WORKLOAD=sweep-full
SEED=1

if [ $# -ne 1 ]; then
    echo "usage: $0 PARENT_REV" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Builds the tree that the command after $1 writes as a tar stream, at
# $work/src, and keeps its benchmark binary as $work/$1.
build() {
    rm -rf "$work/src"
    mkdir "$work/src"
    "${@:2}" | tar -x -C "$work/src"
    cargo build --release --offline --quiet \
        --manifest-path "$work/src/benchmark/Cargo.toml" --target-dir "$work/target-$1"
    cp "$work/target-$1/release/uopcache-benchmark" "$work/$1"
}

# The working tree as a tar stream: tracked and untracked files, minus
# ignored ones and tracked files deleted in the working tree.
working_tree() {
    git -C "$root" ls-files -z --cached --others --exclude-standard |
        (cd "$root" && while IFS= read -r -d '' f; do
            if [ -e "$f" ]; then printf '%s\0' "$f"; fi
        done | tar --null -T - -cf -)
}

echo "perf gate: $WORKLOAD, $PAIRS pairs of ${RUN_SECONDS}s runs, tolerance $TOLERANCE"
echo "building the parent ($parent) and the working tree"
build parent git -C "$root" archive "$parent"
build change working_tree
parent_bin=$work/parent
change_bin=$work/change

# Runs one side and prints its closing JSON line.
run() {
    local log=$work/run.log
    if ! "$1" --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" >"$log" ||
        ! grep -q '"correct":true' "$log"; then
        cat "$log" >&2
        echo "$1: the run failed" >&2
        exit 1
    fi
    tail -n 1 "$log"
}

# The value of metric $2 in JSON line $1.
metric() {
    sed -n "s/.*\"$2\":{\"value\":\([-0-9.e+]*\),.*/\1/p" <<<"$1"
}

for ((i = 1; i <= PAIRS; i++)); do
    if ((i % 2)); then
        a=$(run "$parent_bin")
        b=$(run "$change_bin")
    else
        b=$(run "$change_bin")
        a=$(run "$parent_bin")
    fi
    line="pair $i:"
    for m in wall_p50_ms cpu_ms; do
        ratio=$(awk -v a="$(metric "$a" $m)" -v b="$(metric "$b" $m)" 'BEGIN { printf "%.4f", b / a }')
        echo "$ratio" >>"$work/$m"
        line="$line $m $(metric "$a" $m) -> $(metric "$b" $m) (x$ratio)"
    done
    echo "$line"
done

status=0
for m in wall_p50_ms cpu_ms; do
    verdict=$(sort -g "$work/$m" | awk -v tol="$TOLERANCE" -v m="$m" '
        { r[NR] = $1 }
        END {
            med = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
            printf "%s: median ratio %.4f (min %.4f, max %.4f), limit %.4f: %s\n",
                m, med, r[1], r[NR], 1 + tol, (med > 1 + tol) ? "FAIL" : "ok"
        }')
    echo "$verdict"
    case $verdict in *FAIL) status=1 ;; esac
done
exit $status
