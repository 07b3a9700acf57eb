#!/usr/bin/env python3
"""Smoke test of the repo benchmark at tiny scale.

Runs every workload of BENCHMARK.json through xpbench/run.py with the
datasets shrunk 16x and a fixed seed, untraced and traced, and checks
that every end-to-end and per-layer metric is emitted with its unit.

    python3 -m unittest discover -s xpbench/tests    (from the repo root)
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(workload, trace):
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "xpbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale-delta", "4"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    return res.returncode, res.stdout


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace, key):
        rc, out = run(workload, trace)
        self.assertEqual(rc, 0, out[-2000:])
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        for name in want:
            self.assertIn(name, out.rsplit("\n", 2)[0])
        return out

    def test_workloads(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], 0, "end_to_end")
            with self.subTest(workload=w["name"], trace=1):
                out = self.check(w["name"], 1, "per_layer")
                self.assertIn("self_s", out)


if __name__ == "__main__":
    unittest.main()
