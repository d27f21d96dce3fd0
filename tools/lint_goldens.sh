#!/bin/sh
# Print the `syscomm-cli lint` report of every checked-in example
# program (at the default shape, at one queue per link, and at capacity
# 2 plus 2 extension words), of the program in a submission JSON file
# (CI passes its statically deadlocked one), and of a small
# gen-ring-sweep ring, which is free only with lookahead buffering and
# whose section 6 labeling falls back. CI diffs the output against
# bench/golden/lint_reports.txt, so a change to any report shows in the
# diff of the change that makes it; such a change regenerates the file
# from the repository root:
#
#   tools/lint_goldens.sh build/syscomm-cli deadlocked.json \
#       > bench/golden/lint_reports.txt
set -eu
cli=$1
submission=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The program text of a submission or gen-ring-sweep JSON body.
program_of() {
    python3 -c 'import json, sys
sys.stdout.write(json.load(sys.stdin)["program"])'
}

# One report: a header naming the program and flags, then the JSON
# (lint exits 1 on a deadlock or an invalid program; that is recorded).
lint() {
    name=$1
    file=$2
    shift 2
    echo "==" "$name" "$@"
    "$cli" lint "$file" "$@" || echo "exit $?"
}

for f in examples/*.sysc; do
    lint "$f" "$f"
    lint "$f" "$f" --queues 1
    lint "$f" "$f" --capacity 2 --extension 2
done

program_of < "$submission" > "$tmp/deadlocked.sysc"
lint deadlocked "$tmp/deadlocked.sysc"
lint deadlocked "$tmp/deadlocked.sysc" --capacity 2 --extension 2

"$cli" gen-ring-sweep --words 50 | program_of > "$tmp/ring.sysc"
lint ring "$tmp/ring.sysc" --topology ring
lint ring "$tmp/ring.sysc" --topology ring --queues 1
lint ring "$tmp/ring.sysc" --topology ring --capacity 2 --extension 2
