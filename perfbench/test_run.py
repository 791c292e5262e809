#!/usr/bin/env python3
"""Tests of the benchmark: short runs of every workload under two seeds.

    python3 perfbench/test_run.py

Each run goes through run.py exactly as a measurement would, for 2
seconds. The test checks that every printed line is strict JSON (bare
NaN/Infinity tokens are rejected), that the result line carries every
metric BENCHMARK.json declares for its mode with a unit, and that the
answer checks pass.
"""

import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402

SEEDS = (3, 4)


def strict_loads(line):
    return json.loads(line, parse_constant=run.reject_constant)


def bench(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class StrictJson(unittest.TestCase):
    def test_non_finite_tokens_are_rejected(self):
        for bad in ('{"phi_ratio": NaN}', '{"x": Infinity}', '[-Infinity]'):
            with self.assertRaises(ValueError):
                strict_loads(bad)
        self.assertEqual(strict_loads('{"x": null}'), {"x": None})

    def test_result_line_shape_is_enforced(self):
        good = '{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"}}}'
        self.assertTrue(run.parse_result(good)["correct"])
        for bad in ('{"correct":true,"attempted":0,"failed":0,"metrics":{}}',
                    '{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}',
                    '{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":NaN,"unit":"s"}}}'):
            with self.assertRaises(ValueError):
                run.parse_result(bad)


class ShortRuns(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload, trace):
        wanted = {m["name"]: m["unit"] for m in self.spec["per_layer" if trace else "end_to_end"]}
        for seed in SEEDS:
            code, lines = bench(workload, seed, trace)
            self.assertEqual(code, 0, f"{workload} seed {seed} trace {trace}")
            self.assertGreaterEqual(len(lines), 2)
            detail = strict_loads(lines[-2])
            self.assertEqual(detail["seed"], seed)
            result = run.parse_result(lines[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, wanted)
            for name, m in result["metrics"].items():
                self.assertIsInstance(m["value"], (int, float), name)

    def test_interactive(self):
        self.check("interactive", 0)

    def test_bulk(self):
        self.check("bulk", 0)

    def test_served(self):
        self.check("served", 0)

    def test_traced(self):
        for workload in ("interactive", "bulk", "served"):
            self.check(workload, 1)


if __name__ == "__main__":
    unittest.main()
