#!/usr/bin/env python3
"""End-to-end benchmark of the sharp libraries.

Builds perfbench_driver from this checkout's sources (into
$CARGO_TARGET_DIR or .bench_build, under perfbench/), then runs it.

One run (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload calibrate_sweep --seed 1 \\
        --seconds 25 --trace 0

Tiny inputs, for checking the metric set quickly:

    python3 perfbench/run.py --workload compare_gate --seed 1 \\
        --seconds 1 --trace 1 --quick

Oracle self-test (every oracle passes honest output and rejects a
tampered expectation):

    python3 perfbench/run.py --self-test

Steadiness report: run each workload K times on seeds N..N+K-1 and print,
per metric, the median, the quartiles, the interquartile spread as a
share of the median, and the max/min ratio:

    python3 perfbench/run.py --steadiness 10 --seconds 25 [--workload W]

See perfbench/README.md for what each workload measures.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["calibrate_sweep", "run_campaign", "compare_gate"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once and build the driver; returns its path."""
    for needed in ("src/CMakeLists.txt", "tests/baselines/calibration.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no sharp checkout around perfbench/ (missing %s)" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target",
                      "perfbench_driver", "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout carries the result.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                print("perfbench: build failed: " + " ".join(step),
                      file=sys.stderr)
                sys.exit(1)
    return os.path.join(out, "perfbench_driver")


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True).stdout.strip() or "none"
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "git:%s src:%s" % (commit, digest.hexdigest()[:16])


def driver_args(driver, workload, seed, seconds, trace, quick, commit):
    args = [driver, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--root", ROOT, "--work", os.path.join(build_dir(), "work"),
            "--commit", commit]
    return args + (["--quick"] if quick else [])


def steadiness(driver, opts, commit):
    """Repeat mode: the evidence behind the bounds in BENCHMARK.json."""
    workloads = [opts.workload] if opts.workload else WORKLOADS
    report = {}
    for workload in workloads:
        values = {}
        for k in range(opts.steadiness):
            run = subprocess.run(
                driver_args(driver, workload, opts.seed + k, opts.seconds,
                            opts.trace, opts.quick, commit),
                capture_output=True, text=True)
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                fail("%s seed %d exited %d" % (workload, opts.seed + k,
                                               run.returncode))
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            load = json.loads(lines[-2])["provenance"]["loadavg_start"]
            print("%s seed %d: correct=%s load=%s" % (
                workload, opts.seed + k, result["correct"], load),
                file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        print("%s (%d runs)" % (workload, opts.steadiness))
        print("  %-32s %14s %14s %14s %8s %8s" % (
            "metric", "median", "q1", "q3", "iqr/med", "max/min"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ratio = max(vals) / min(vals) if min(vals) > 0 else 0.0
            report[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "iqr_share": spread,
                "max_min": ratio, "values": vals}
            print("  %-32s %14.6g %14.6g %14.6g %8.4f %8.4f" % (
                name, med, q1, q3, spread, ratio))
    print(json.dumps({"steadiness": report}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="K")
    opts = parser.parse_args()
    if opts.steadiness is not None and opts.steadiness < 2:
        fail("--steadiness needs K >= 2")
    if not (opts.self_test or opts.steadiness or opts.workload):
        fail("--workload is required")

    driver = build()
    commit = source_identity()
    if opts.self_test:
        sys.exit(subprocess.run(
            [driver, "--self-test", "--root", ROOT, "--work",
             os.path.join(build_dir(), "work")]).returncode)
    if opts.steadiness:
        steadiness(driver, opts, commit)
        return
    sys.stdout.flush()
    sys.exit(subprocess.run(driver_args(
        driver, opts.workload, opts.seed, opts.seconds, opts.trace,
        opts.quick, commit)).returncode)


if __name__ == "__main__":
    main()
