"""Workload-shape and output-contract tests for perfbench.

Each workload was chosen to stress particular layers (README.md).  These
tests run the traced mode once per workload and check that it still
does, so a change that shifts the cost profile shows up here before it
silently changes what a workload measures.

    python3 -m unittest discover -s perfbench/tests

Each traced run takes roughly 10-30 s; the first one builds perfbench.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONFIG = json.load(f)

_cache = {}


def run(workload, trace, seconds=1):
    key = (workload, trace)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", "2024",
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} trace={trace} exited "
                                 f"{proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _cache[key] = result
    return _cache[key]


def layers(workload):
    result = run(workload, 1)
    return {k: v["value"] for k, v in result["metrics"].items()}


class OutputContractTest(unittest.TestCase):
    def check(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_reports_every_end_to_end_metric(self):
        result = run("uniform-match", 0)
        self.check(result, CONFIG["end_to_end"])
        for m in CONFIG["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                               m["name"])

    def test_traced_reports_every_per_layer_metric(self):
        for w in CONFIG["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(run(w["name"], 1), CONFIG["per_layer"])

    def test_traced_replay_reproduces_the_engine(self):
        for w in CONFIG["workloads"]:
            with self.subTest(workload=w["name"]):
                m = layers(w["name"])
                self.assertEqual(m["trace.valid"], 1.0)
                self.assertLess(m["trace.self_sum_error_ms"],
                                1e-6 * m["trace.batch_ms"] + 1e-9)

    def test_workloads_match_run_py(self):
        sys.path.insert(0, BENCH_DIR)
        try:
            import run as run_py
        finally:
            sys.path.pop(0)
        self.assertEqual(tuple(w["name"] for w in CONFIG["workloads"]),
                         run_py.WORKLOADS)


class WorkloadShapeTest(unittest.TestCase):
    def test_uniform_match_is_matching_bound(self):
        m = layers("uniform-match")
        self_time = {
            "graph": m["graph.sanitize_ms"] + m["graph.mirror_ms"],
            "gpma": m["gpma.apply_ms"] + m["gpma.simulate_ms"],
            "core.encoder": m["core.encoder.ms"],
            "core.wbm": m["core.wbm.neg_ms"] + m["core.wbm.pos_ms"],
        }
        self.assertEqual(max(self_time, key=self_time.get), "core.wbm",
                         self_time)

    def test_churn_16q_is_delete_and_per_query_update_bound(self):
        m = layers("churn-16q")
        self.assertGreater(m["core.wbm.neg_ms"], m["core.wbm.pos_ms"])
        update = (m["graph.sanitize_ms"] + m["graph.mirror_ms"] +
                  m["gpma.apply_ms"] + m["gpma.simulate_ms"] +
                  m["core.encoder.ms"])
        self.assertGreaterEqual(update, m["trace.batch_ms"] / 3)

    def test_durable_multishare_is_wrapper_bound(self):
        m = layers("durable-multishare")
        # persist.wal_ms is per non-snapshot batch, so this sum is a
        # lower bound on the wrapper layers' share of the batch.
        wrappers = (m["serve.overhead_ms"] + m["persist.wal_ms"] +
                    m["replica.apply_ms"])
        self.assertGreaterEqual(wrappers, m["trace.batch_ms"] / 3)


if __name__ == "__main__":
    unittest.main()
