#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the driver (if needed) through perfbench/run.py, then checks that

- a tiny-size run of every workload emits exactly the metrics
  BENCHMARK.json declares, each with its declared unit, untraced
  (end_to_end) and traced (per_layer);
- every oracle passes honest outputs and rejects a tampered expectation
  (a perturbed baseline cell, a changed CSV/report digest, a flipped
  verdict), and traced outputs match untraced ones;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class QuickRuns(unittest.TestCase):
    def quick(self, workload, trace):
        done = run(RUN + ["--workload", workload, "--seed", "5",
                          "--seconds", "1", "--trace", str(trace),
                          "--quick"])
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.quick(workload, trace)["metrics"]
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    emitted = {name: m["unit"]
                               for name, m in metrics.items()}
                    self.assertEqual(emitted, declared)
                    for name, metric in metrics.items():
                        value = metric["value"]
                        self.assertIsInstance(value, (int, float), name)
                        self.assertTrue(math.isfinite(value), name)
                        if key == "end_to_end":
                            self.assertGreater(value, 0, name)


class Oracles(unittest.TestCase):
    def test_each_oracle_rejects_a_tampered_expectation(self):
        done = run(RUN + ["--self-test"])
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        for workload in (w["name"] for w in SPEC["workloads"]):
            for check in ("oracle passes honest outputs",
                          "a changed output digest is rejected",
                          "traced outputs match untraced outputs",
                          "a tampered expectation is rejected"):
                self.assertIn("ok    %s: %s" % (workload, check),
                              done.stdout)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            command = SPEC["command"] + [
                "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"]
            command[0] = sys.executable
            done = run(command, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
