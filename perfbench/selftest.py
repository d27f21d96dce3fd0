#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload at minimum size (--smoke) through run.py, untraced
and traced, and checks that the result line carries every metric
BENCHMARK.json declares with its unit and a finite value, and that the
run passed its correctness gate. Then reruns each workload with one
expected digest altered (--corrupt-expected) and checks that the gate
trips: nonzero exit, "correct": false, at least one failure.

    python3 perfbench/selftest.py

Exit status 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kernel-large", "paper-sweep", "serve-mix"]


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    if corrupt:
        cmd.append("--corrupt-expected")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            label = f"{workload} trace={trace}"
            expect(code == 0 and result is not None,
                   f"{label}: exit 0 with a result line"
                   + ("" if code == 0 else f" (exit {code}: {err[-400:]})"))
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: gate passed ({result['failed']} of "
                   f"{result['attempted']} failed)")
            for metric in spec[section]:
                row = result["metrics"].get(metric["name"])
                expect(row is not None and row["unit"] == metric["unit"]
                       and isinstance(row["value"], (int, float))
                       and math.isfinite(row["value"]),
                       f"{label}: metric {metric['name']} [{metric['unit']}]")
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            expect(not extra, f"{label}: no undeclared metrics {sorted(extra)}")

        code, result, _ = run(workload, 0, corrupt=True)
        expect(code != 0 and result is not None
               and result["correct"] is False and result["failed"] >= 1,
               f"{workload}: altered expected digest trips the gate "
               f"(exit {code})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
