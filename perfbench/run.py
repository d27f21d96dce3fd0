#!/usr/bin/env python3
"""Front end of the syscomm repository benchmark (see README.md here).

Builds the perfbench harness from source (CMake, into $CARGO_TARGET_DIR
or .bench_build), runs one workload in its own process and prints the
harness's report followed, as the last line of standard output, by one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics.

    python3 perfbench/run.py --workload kernel-large --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 [--with-trace]

--all runs every workload (one process each) and prints every metric
with its unit, median, tail percentile and sample count.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kernel-large", "paper-sweep", "serve-mix"]
RUN_TIMEOUT_S = 170
# Linux FS_IOC_GETFLAGS / FS_IOC_SETFLAGS and FS_TOPDIR_FL (chattr +T).
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the harness; returns the binary path."""
    out = build_root()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def spread_run_dirs(path):
    """Mark `path` a top directory (chattr +T), where the filesystem
    supports it; otherwise do nothing.

    ext4 then places each run's work dir in a block group it picks
    afresh, instead of next to its parent. Without this, every run
    spools into the block group that the previous run's clean-up has
    just freed. On an ext4 without a journal, a new inode skips inodes
    deleted in the last minute or so. There, each spool file then cost
    300-600 us to create instead of 30-70 us, so the previous run's
    clean-up set the next run's serve-mix figures.
    """
    try:
        import fcntl
        fd = os.open(path, os.O_RDONLY)
        try:
            raw = fcntl.ioctl(fd, FS_IOC_GETFLAGS, bytes(8))
            flags = int.from_bytes(raw[:4], "little")
            if not flags & FS_TOPDIR_FL:
                fcntl.ioctl(fd, FS_IOC_SETFLAGS,
                            (flags | FS_TOPDIR_FL).to_bytes(4, "little")
                            + bytes(4))
        finally:
            os.close(fd)
    except (ImportError, OSError):
        pass


def source_id():
    """git sha when the checkout has one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"git:{sha} src:{digest.hexdigest()[:16]}"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace, smoke=False,
                 corrupt=False, echo=True):
    """Run one workload process; returns (exit code, results dict)."""
    out = build_root()
    results_dir = os.path.join(out, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    results = os.path.join(results_dir, stem + ".json")
    if os.path.exists(results):
        os.remove(results)
    tmp_parent = os.path.join(out, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    spread_run_dirs(tmp_parent)
    work = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    # Relative paths keep the daemon's Unix socket path short.
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", os.path.relpath(work, ROOT),
           "--results", os.path.relpath(results, ROOT),
           "--golden", os.path.relpath(
               os.path.join(HERE, "golden_digests.txt"), ROOT)]
    if trace:
        cmd += ["--trace-out",
                os.path.relpath(os.path.join(results_dir,
                                             stem + ".trace.json"), ROOT)]
    if smoke:
        cmd.append("--smoke")
    if corrupt:
        cmd.append("--corrupt-expected")
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    sys.stderr.write(done.stderr)
    data = None
    if os.path.exists(results):
        with open(results) as f:
            data = json.load(f)
    return done.returncode, data


def contract_line(data, trace):
    metrics = {}
    for name in declared_metrics(trace):
        row = data["metrics"].get(name)
        if row is None:
            raise RuntimeError(f"metric {name} was not reported")
        metrics[name] = {"value": row["value"], "unit": row["unit"]}
    return json.dumps({"correct": bool(data["correct"]),
                       "attempted": int(data["attempted"]),
                       "failed": int(data["failed"]),
                       "metrics": metrics})


def run_all(binary, args):
    rows = []
    failed = False
    for workload in WORKLOADS:
        for trace in ([False, True] if args.with_trace else [False]):
            code, data = run_workload(binary, workload, args.seed,
                                      args.seconds, trace, args.smoke,
                                      echo=False)
            if data is None:
                log(f"{workload}: no result (exit {code})")
                failed = True
                continue
            failed = failed or code != 0 or not data["correct"]
            attempted = max(1, data["attempted"])
            rows.append((workload, "fail_ratio", "ratio",
                         data["failed"] / attempted, None, None,
                         data["attempted"]))
            for name, m in data["metrics"].items():
                rows.append((workload, name, m["unit"], m["value"],
                             m["median"], (m["tail"], m["tail_pct"]),
                             m["count"]))
    print(f"{'workload':<13} {'metric':<40} {'unit':<6} {'value':>13} "
          f"{'median':>13} {'tail':>20} {'n':>6}")
    for workload, name, unit, value, median, tail, n in rows:
        med = "" if median is None else f"{median:.6g}"
        tl = "" if tail is None else f"{tail[0]:.6g}@p{tail[1]:g}"
        print(f"{workload:<13} {name:<40} {unit:<6} {value:>13.6g} "
              f"{med:>13} {tl:>20} {n:>6}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--with-trace", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size inputs (self-test)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="alter one expected digest (self-test)")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    try:
        binary = build()
    except (OSError, RuntimeError) as err:
        log(str(err))
        return 2
    if args.all:
        return run_all(binary, args)
    code, data = run_workload(binary, args.workload, args.seed,
                              args.seconds, bool(args.trace), args.smoke,
                              args.corrupt_expected)
    if data is None:
        log(f"{args.workload}: no result (exit {code})")
        return code or 2
    try:
        line = contract_line(data, bool(args.trace))
    except (KeyError, RuntimeError) as err:
        log(str(err))
        return 2
    print(line, flush=True)
    if code == 0 and not data["correct"]:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
