#!/usr/bin/env bash
# Hand mutants, one at a time (ROADMAP item 20). Each line of mutants.txt
# names a file, an exact text in it, the text's replacement and the tier-1
# test that must fail on the mutant. The committed tree (HEAD) is copied
# once into a scratch directory; for each mutant the file is changed there,
# the named test runs and, when it passes, the whole tier-1 suite, and the
# file is put back. One line per mutant:
#
#   killed by NAME      the first test that failed (the build counts too)
#   survived            the tier-1 suite passed on the mutant
#
# A `(not the named test)` suffix says another test killed a mutant its
# named test let through. Exits 1 if a mutant survived that mutants.txt
# does not mark `equivalent:`, or if a text is not found exactly once.
#
# usage: scripts/mutants.sh [SCRATCH_DIR]
# The scratch directory (default: a new one under $TMPDIR) keeps the copy
# and its cargo target between runs; the first build takes minutes, each
# mutant after it the rebuild of the crates it touches plus the tests.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
copy="$work/tree"
rm -rf "$copy"
mkdir -p "$copy"
git -C "$repo" archive --format=tar HEAD | tar -xf - -C "$copy"
export CARGO_TARGET_DIR="$work/target"
log="$work/test.log"

# Names of the failed tests in a cargo test log, in the order they failed.
failed_tests() {
    sed -nE 's/^---- (.+) stdout ----$/\1/p' "$log"
}

# Tests cargo ran according to the log (passed plus failed).
tests_run() {
    sed -nE 's/^test result: [a-zA-Z]+\. ([0-9]+) passed; ([0-9]+) failed.*/\1 \2/p' "$log" |
        awk '{ n += $1 + $2 } END { print n + 0 }'
}

# Run cargo test with the given arguments in the copy; prints the verdict
# and returns 0 when something failed.
killed() {
    if (cd "$copy" && cargo test -q --no-fail-fast "$@") >"$log" 2>&1; then
        return 1
    fi
    local first
    first=$(failed_tests | head -n 1)
    echo "killed by ${first:-the build}"
}

status=0
n=0
while IFS=$'\t' read -r file find replace killer; do
    [[ -z $file || $file == \#* ]] && continue
    n=$((n + 1))
    find=${find//\\n/$'\n'}
    replace=${replace//\\n/$'\n'}
    target="$copy/$file"
    content=$(
        cat "$target"
        printf x
    )
    content=${content%x}
    rest=$content
    hits=0
    while [[ $rest == *"$find"* ]]; do
        rest=${rest#*"$find"}
        hits=$((hits + 1))
    done
    if ((hits != 1)); then
        echo "mutant $n ($file): the text occurs $hits times, not once"
        status=1
        continue
    fi
    cp "$target" "$work/original"
    printf '%s' "${content/"$find"/"$replace"}" >"$target"
    verdict=
    if [[ $killer != equivalent:* ]]; then
        verdict=$(killed -- "$killer") || verdict=
        if [[ -z $verdict && $(tests_run) == 0 ]]; then
            echo "mutant $n ($file): no test is named $killer"
            status=1
        fi
    fi
    if [[ -z $verdict ]]; then
        if verdict=$(killed); then
            [[ $killer == equivalent:* ]] || verdict="$verdict (not the named test)"
        elif [[ $killer == equivalent:* ]]; then
            verdict="survived (${killer})"
        else
            verdict=survived
            status=1
        fi
    fi
    echo "mutant $n ($file): $verdict"
    cp "$work/original" "$target"
done <"$repo/mutants.txt"
exit $status
