#!/bin/sh
# Print what every example binary writes to stdout when ctest runs it
# (example_analyze with --run), plus one more example_analyze run that
# simulates the one-queue Fig. 7 machine under FCFS. A failing example
# is recorded as "exit N", not fatal. CI diffs the output against
# bench/golden/example_outputs.txt, so a change to what an example
# prints shows in the diff of the change that makes it; such a change
# regenerates the file from the repository root:
#
#   sh tools/example_goldens.sh build > bench/golden/example_outputs.txt
set -eu
build=$1
export LC_ALL=C

# One example run: a header naming the binary and its arguments, then
# its stdout.
run() {
    name=$1
    shift
    echo "==" "$name" "$@"
    "$build/$name" "$@" || echo "exit $?"
}

for src in examples/*.cpp; do
    name=example_$(basename "$src" .cpp)
    if [ "$name" = example_analyze ]; then
        run "$name" --run
    else
        run "$name"
    fi
done
run example_analyze --run --policy fcfs --queues 1
