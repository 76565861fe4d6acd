#!/usr/bin/env bash
# Corrupt-checkpoint corpus and crash check for seamap_cli.
#
# The corpus damages a real checkpoint journal in every way a crash or
# disk fault plausibly would (truncations at many offsets, single-byte
# flips, a flipped, duplicated or swapped line, garbage, a format-1
# file, a journal of the other kind) and proves seamap_cli handles each
# gracefully: exit code 0 or a structured rejection (exit 2 with an
# {"error"} object), never a crash, never a sanitizer abort. A resume
# that exits 0 must print the same --json as the undamaged journal's
# resume. It runs once against `optimize`'s FILE and once against
# `campaign`'s FILE.sim.
#
# The crash check SIGKILLs a `--checkpoint-every 1` optimize, and then
# a campaign, at three points each, resumes each run and compares its
# --json with an uninterrupted run's.
#
# Usage: corrupt_checkpoint_corpus.sh <path-to-seamap_cli>
set -u

cli=${1:?usage: corrupt_checkpoint_corpus.sh <path-to-seamap_cli>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

failures=0
cases=0

fail() {
    echo "FAIL [$1]: $2"
    failures=$((failures + 1))
}

graph="$work/fig8.tg"
"$cli" generate fig8 -o "$graph" > /dev/null || exit 1

# The two targets, each with a complete journal to damage.
optimize_cmd=("$cli" optimize "$graph" --cores 2 --checkpoint "$work/opt.ckpt")
campaign_cmd=("$cli" campaign "$graph" --cores 2 --checkpoint "$work/sim.ckpt")
"${optimize_cmd[@]}" > /dev/null || exit 1
"${campaign_cmd[@]}" > /dev/null || exit 1
cp "$work/opt.ckpt" "$work/opt.pristine"
cp "$work/sim.ckpt.sim" "$work/sim.pristine"

# One corpus entry: resume from the damaged journal in $file. Expected
# outcome: "any" (0 or 2), "torn" (0) or an error code (2 carrying it).
# On 2 the --json surface must carry the structured error object; on 0
# it must equal the undamaged resume's.
check_case() {
    local label="$target: $1" expect=$2
    cases=$((cases + 1))
    local rc
    "${cmd[@]}" --resume --json > "$work/out.json" 2> "$work/stderr.txt"
    rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
        fail "$label" "exit code $rc (expected 0 or 2)"
        cat "$work/stderr.txt"
        return
    fi
    if [ "$rc" -eq 0 ] && ! cmp -s "$work/out.json" "$work/reference.json"; then
        fail "$label" "resumed, but its --json differs from the undamaged resume"
        return
    fi
    if [ "$rc" -eq 2 ] && ! grep -q '"error"' "$work/out.json"; then
        fail "$label" "exit 2 without a structured {\"error\"} object"
        return
    fi
    case "$expect" in
    any) ;;
    torn)
        if [ "$rc" -ne 0 ]; then
            fail "$label" "a torn last line must resume (exit $rc)"
            return
        fi
        ;;
    *)
        if [ "$rc" -ne 2 ] || ! grep -q "\"code\": \"$expect\"" "$work/out.json"; then
            fail "$label" "expected exit 2 with code $expect, got exit $rc"
            return
        fi
        ;;
    esac
    echo "ok   [$label]: exit $rc"
}

# Byte offset where line $2 (1-based) of file $1 starts.
line_start() {
    head -n $(($2 - 1)) "$1" | wc -c
}

# run_corpus <target> <damaged file> <pristine copy> <journal of the other kind>
run_corpus() {
    target=$1
    local file=$2 pristine=$3 other=$4
    local size lines last
    size=$(wc -c < "$pristine")
    lines=$(wc -l < "$pristine")
    last=$(line_start "$pristine" "$lines")

    cp "$pristine" "$file"
    cases=$((cases + 1))
    if ! "${cmd[@]}" --resume --json > "$work/reference.json" 2> /dev/null; then
        fail "$target: pristine" "the undamaged journal no longer resumes"
        return
    fi

    # Truncations: a torn write can stop anywhere.
    for keep in 0 1 7 16 $((size / 4)) $((size / 2)) $((size - 1)); do
        head -c "$keep" "$pristine" > "$file"
        check_case "truncate-to-$keep" any
    done
    head -c $((last + (size - last) / 2)) "$pristine" > "$file"
    check_case "truncate-inside-last-line" torn

    # Single-byte flips spread across the file: header, records, checksums.
    for offset in 0 5 $((size / 3)) $((size / 2)) $((size - 2)); do
        cp "$pristine" "$file"
        printf 'Z' | dd of="$file" bs=1 seek="$offset" conv=notrunc status=none
        check_case "flip-byte-$offset" any
    done
    cp "$pristine" "$file"
    printf 'Z' | dd of="$file" bs=1 seek=$(($(line_start "$pristine" 2) + 1)) conv=notrunc \
        status=none
    check_case "flip-in-middle-line" checkpoint_corrupt

    # Whole lines out of place: the checksum chain catches them.
    awk 'NR == 2 { print } { print }' "$pristine" > "$file"
    check_case "duplicated-line" checkpoint_corrupt
    awk 'NR == 2 { held = $0; next } NR == 3 { print; print held; next } { print }' \
        "$pristine" > "$file"
    check_case "swapped-lines" checkpoint_corrupt

    # Wholesale garbage, empty file, and binary noise.
    printf 'this is not a checkpoint\n' > "$file"
    check_case "garbage-text" any
    : > "$file"
    check_case "empty-file" any
    head -c 256 /dev/urandom > "$file"
    check_case "binary-noise" any

    # A snapshot of the retired format 1.
    printf '%s\n' "seamap-checkpoint 1" "library 0.2.0" "kind dse" \
        "hash 0000000000000000" "lines 0" "checksum 0000000000000000" > "$file"
    check_case "format-1-file" checkpoint_corrupt

    # A valid journal of the wrong kind.
    cp "$other" "$file"
    check_case "kind-swap" checkpoint_mismatch

    cp "$pristine" "$file"
}

cmd=("${optimize_cmd[@]}")
run_corpus optimize "$work/opt.ckpt" "$work/opt.pristine" "$work/sim.pristine"
cmd=("${campaign_cmd[@]}")
run_corpus campaign "$work/sim.ckpt.sim" "$work/sim.pristine" "$work/opt.pristine"

# crash_check <name> <suffix of the journal to watch> <command...>:
# SIGKILL the command once its watched journal holds a quarter, a half
# and three quarters of the lines an uninterrupted run writes; every
# resume must print the uninterrupted run's --json.
crash_check() {
    local name=$1 suffix=$2
    shift 2
    local stem="$work/crash_$name"
    rm -f "$stem" "$stem.dse" "$stem.sim"
    if ! "$@" --checkpoint "$stem" --json > "$work/baseline.json" 2> /dev/null; then
        fail "crash $name" "the uninterrupted run failed"
        return
    fi
    local lines
    lines=$(wc -l < "$stem$suffix")
    for quarter in 1 2 3; do
        local target=$((lines * quarter / 4)) pid rc
        cases=$((cases + 1))
        rm -f "$stem" "$stem.dse" "$stem.sim"
        "$@" --checkpoint "$stem" > /dev/null 2>&1 &
        pid=$!
        while kill -0 "$pid" 2> /dev/null; do
            if [ -f "$stem$suffix" ] && [ "$(wc -l < "$stem$suffix")" -ge "$target" ]; then
                kill -KILL "$pid" 2> /dev/null
                break
            fi
            sleep 0.005
        done
        wait "$pid" 2> /dev/null
        rc=$?
        if [ "$rc" -ne 137 ]; then
            fail "crash $name at $target lines" "the run ended (exit $rc) before the kill"
            continue
        fi
        if ! "$@" --checkpoint "$stem" --resume --json > "$work/resumed.json" 2> /dev/null; then
            fail "crash $name at $target lines" "the resume failed"
        elif ! cmp -s "$work/baseline.json" "$work/resumed.json"; then
            fail "crash $name at $target lines" "the resumed --json differs"
        else
            echo "ok   [crash $name]: killed at $target of $lines lines, resume identical"
        fi
    done
}

"$cli" generate pipeline --stages 8 --width 3 -o "$work/pipeline.tg" > /dev/null || exit 1
"$cli" generate mpeg2 -o "$work/mpeg2.tg" > /dev/null || exit 1
crash_check optimize "" "$cli" optimize "$work/pipeline.tg" --cores 12 --levels 4 \
    --iterations 200 --checkpoint-every 1
crash_check campaign .sim "$cli" campaign "$work/mpeg2.tg" --cores 4 --iterations 200 \
    --trials 100000 --shard-size 256 --checkpoint-every 1

echo "corrupt-checkpoint corpus: $((cases - failures))/$cases cases passed"
[ "$failures" -eq 0 ]
