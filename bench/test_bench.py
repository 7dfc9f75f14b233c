"""Self-tests of the benchmark harness (stdlib unittest; about two minutes).

    python3 -m unittest discover -s bench -p "test_*.py"

They check the harness, not the library: traced counts repeat exactly for
one seed, a wrong expected value or an exception is counted as an error
without stopping the run, BENCHMARK.json names exactly the metrics the
harness prints, and the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = ("_calls", "_entries", "_cells", "abk_classes")


def _traced(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class TracedCountsRepeat(unittest.TestCase):
    def test_counts_repeat_exactly_for_one_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = _traced(workload, 3, hash_seed="1")
                second = _traced(workload, 3, hash_seed="2")
                counts = [name for name, _ in tracing.PER_LAYER
                          if name.endswith(COUNT_SUFFIXES)]
                self.assertEqual(len(counts), 14)
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)
                self.assertTrue(first["correct"] and second["correct"])


class ErrorsAreCounted(unittest.TestCase):
    def test_wrong_expected_value_is_an_error(self):
        # Shift every closed-form expected root of unity by one eighth turn.
        right = workloads.zeta_pow
        workloads.zeta_pow = lambda k: right(k + 1)
        try:
            jobs = workloads.build_round("gauss_sweep", 5)
        finally:
            workloads.zeta_pow = right
        result = run._measure(jobs, 0, run.MIN_SAMPLES)
        self.assertGreaterEqual(result["attempted"], run.MIN_SAMPLES)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["unexpected_count"], result["attempted"])
        self.assertIn("wrong value", result["unexpected"][0])

    def test_exception_is_an_error_and_the_run_goes_on(self):
        def boom():
            raise ZeroDivisionError("planted")

        jobs = [workloads.Job("boom", boom, lambda value: True),
                workloads.Job("fine", lambda: 1, lambda value: value == 1)]
        result = run._measure(jobs, 0, run.MIN_SAMPLES)
        self.assertEqual(result["failed"] * 2, result["attempted"])
        self.assertIn("ZeroDivisionError: planted", result["unexpected"][0])

    def test_known_defect_fails_without_making_the_run_incorrect(self):
        jobs = [workloads.Job("defect", lambda: 0, lambda value: False, known_defect=True)]
        result = run._measure(jobs, 0, run.MIN_SAMPLES)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["unexpected_count"], 0)


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "gauss_sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
