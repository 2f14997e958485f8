#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 simbench/test_smoke.py

Run from the repository root. For every workload it makes a minimal run
(a warm-up and two passes) in each mode and checks the result object:
its keys, that every metric BENCHMARK.json names is there with its unit,
that names and units use only the allowed characters, and that nothing
failed. Two traced runs with the same seed must agree exactly on every
count metric.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


def run(workload, trace, seed=SEED):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, result, group):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[group]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            if group == "end_to_end":
                self.assertGreater(m["value"], 0, name)

    def test_every_workload(self):
        for w in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=w):
                self.check(run(w, 0), "end_to_end")
                first = run(w, 1)
                self.check(first, "per_layer")
                again = run(w, 1)
                self.check(again, "per_layer")
                for m in self.spec["per_layer"]:
                    if m["unit"] in ("count", "bytes", "ratio"):
                        self.assertEqual(first["metrics"][m["name"]]["value"],
                                         again["metrics"][m["name"]]["value"], m["name"])


if __name__ == "__main__":
    unittest.main()
