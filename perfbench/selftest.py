"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks that every workload runs and passes its checks, that each run prints
every metric of BENCHMARK.json with its unit, that a wrong expected answer
makes the run report a failure, and that the benchmark refuses to run without
the hatlab sources. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_ONLY = {  # metrics printed for reading but not gated, by workload
    "sweep-rules": {"plays_per_s": "plays/s"},
    "plays-tables": {"plays_per_s": "plays/s"},
    "search": {},
    "cli": {"call_ms_p50": "ms", "call_ms_tail": "ms"},
}


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class SpecMatchesCode(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_metric_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Workloads(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in wanted})
        printed = {line.split()[0]: line for line in lines[:-1] if line.split()}
        for m in wanted:
            self.assertIn(f" {m['unit']}", printed[m["name"]])
            if not trace:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        self.assertIn(" ratio", printed["failed_ops_ratio"])
        if not trace:
            for name, unit in PRINTED_ONLY[workload].items():
                self.assertIn(f" {unit}", printed[name])
        return result["metrics"]

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 1)
                self.assertTrue((ROOT / ".bench_out" / f"trace-{workload}-seed3.json").is_file())
                self.assertGreater(metrics["cli.interp_ms"]["value"], 0)
                layer_work = {
                    "sweep-rules": "strategies.decide_calls",
                    "plays-tables": "engine.stream_s",
                    "search": "oracle.verdict_s.ring5-best",
                    "cli": "cli.call_ms.run",
                }[workload]
                self.assertGreater(metrics[layer_work]["value"], 0)


class CorrectnessGate(unittest.TestCase):
    def test_wrong_expected_answer_fails(self):
        sys.path.insert(0, str(run.SRC))
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                wl = cls(3, "tiny", src=str(run.SRC)) if name == "cli" else cls(3, "tiny")
                tr = Tracer()
                wl.setup(tr)
                ops = wl.operations()
                good = run.run_pass(ops, tr, None)
                self.assertEqual(good["failed"], [])
                expect = ops[0].expect
                if isinstance(expect, dict):
                    key = next(iter(expect))
                    ops[0].expect = {**expect, key: [expect[key]]}
                else:
                    ops[0].expect = expect + 1
                bad = run.run_pass(ops, tr, None)
                self.assertEqual(bad["failed"], [ops[0].name])


class Refusals(unittest.TestCase):
    def test_without_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("sweep-rules", 0, cwd=bare, script=bare / HERE.name / "run.py")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Tail(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail(list(range(19))))
        self.assertEqual(run.tail(list(range(1, 21))), (50, 10))
        self.assertEqual(run.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(run.tail(list(range(1, 1001))), (99, 990))


if __name__ == "__main__":
    unittest.main()
