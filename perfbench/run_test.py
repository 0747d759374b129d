#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json's grammar, the metrics
run.py prints, and its output checks.

    python3 perfbench/run_test.py

Runs each workload once (about a minute on 4 cores after the build).
"""

import copy
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_bench(workload, seed, trace):
    """Run run.py with the smallest budget (one repetition)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc


def saved_doc(workload, seed, trace):
    path = (ROOT / ".bench_build" / "results" /
            f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)["raw"]


class BenchmarkJsonTest(unittest.TestCase):
    def test_grammar(self):
        spec = bench_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class RunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = bench_spec()
        cls.results = {}
        runs = [(w, run.DEFAULT_SEED, 0) for w in run.WORKLOADS]
        runs += [("paper1k_worstcase", 7, 1), ("design_search", 7, 1)]
        for workload, seed, trace in runs:
            proc = run_bench(workload, seed, trace)
            assert proc.returncode == 0, f"{workload} seed {seed} failed"
            cls.results[(workload, seed, trace)] = json.loads(
                proc.stdout.strip().splitlines()[-1])

    def expect_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_default_seed_matches_reference(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = self.results[(workload, run.DEFAULT_SEED, 0)]
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.expect_metrics(res, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"],
                                       0)

    def test_other_seed_traced_passes_checks(self):
        for workload in ("paper1k_worstcase", "design_search"):
            with self.subTest(workload=workload):
                res = self.results[(workload, 7, 1)]
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.expect_metrics(res, self.spec["per_layer"])
        layers = self.results[("paper1k_worstcase", 7, 1)]["metrics"]
        self.assertGreater(layers["routing.calls"]["value"], 0)
        self.assertGreater(layers["network.self_s"]["value"], 0)

    def test_changed_statistic_fails_reference(self):
        with open(run.REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)
        doc = saved_doc("xscale32k", run.DEFAULT_SEED, 0)
        self.assertEqual(run.check(doc, reference), [])
        bad = copy.deepcopy(doc)
        for rep in bad["reps"]:
            rep["untraced"]["stats"]["avg_latency"] += 1e-9
        self.assertTrue(any("sim_latency_cycles" in p
                            for p in run.check(bad, reference)))

    def test_traced_difference_fails(self):
        with open(run.REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)
        doc = saved_doc("paper1k_worstcase", 7, 1)
        self.assertEqual(run.check(doc, reference), [])
        bad = copy.deepcopy(doc)
        bad["reps"][0]["traced"]["stats"]["measured_packets"] -= 1
        self.assertTrue(any("traced" in p
                            for p in run.check(bad, reference)))

    def test_unknown_workload_is_refused(self):
        proc = run_bench("no_such_workload", 1, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
