"""Checks BENCHMARK.json against the benchmark description's format limits.

Run with: python3 perfbench/run.py --self-test
(or python3 -m unittest discover perfbench/tests from the repository root).
"""
import json
import os
import re
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PATH = os.path.join(ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REL_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(PATH) as f:
            cls.raw = f.read()
        cls.doc = json.loads(cls.raw)

    def test_size_and_keys(self):
        self.assertLessEqual(len(self.raw.encode()), 64 * 1024)
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds", "workloads",
                                         "end_to_end", "per_layer"})

    def test_command_and_paths(self):
        command = self.doc["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        paths = self.doc["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, REL_PATH)
            self.assertNotIn("..", p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        # Every repository file the command names lies under `paths`.
        for arg in command[1:]:
            if os.path.exists(os.path.join(ROOT, arg)):
                self.assertTrue(any(arg == p or arg.startswith(p + "/") for p in paths), arg)

    def test_run_seconds(self):
        self.assertIsInstance(self.doc["run_seconds"], int)
        self.assertTrue(1 <= self.doc["run_seconds"] <= 60)

    def test_workloads(self):
        workloads = self.doc["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_counts_names_and_units(self):
        e2e, layers = self.doc["end_to_end"], self.doc["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        names = [m["name"] for m in self.doc["workloads"] + e2e + layers]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.doc["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))


if __name__ == "__main__":
    unittest.main()
