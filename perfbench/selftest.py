#!/usr/bin/env python3
"""Self-tests of the benchmark, on the small mode of every workload.

    python3 perfbench/selftest.py        # about two minutes after the build

Checks that every workload runs clean in both modes and prints exactly the
metrics BENCHMARK.json names, each with its unit; that a perturbed result
is counted as a failed operation and fails the run; that the benchmark
refuses to run without the library sources; and that compare.py refuses
records of different configurations.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".bench_build" / "selftest"


def run(workload, trace, *extra, cwd=ROOT, env=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--small", *extra]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result_line(process):
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsArePrinted(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    process = run(workload, trace)
                    self.assertEqual(process.returncode, 0, process.stderr)
                    result = result_line(process)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: entry["unit"]
                               for name, entry in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for entry in result["metrics"].values():
                        self.assertIsInstance(entry["value"], (int, float))


class FailuresAreCounted(unittest.TestCase):
    def test_perturbed_result_counts_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                process = run(workload, 0, "--perturb")
                self.assertEqual(process.returncode, 1, process.stderr)
                result = result_line(process)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_result(self):
        alone = SCRATCH / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, alone / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        process = run(WORKLOADS[0], 0, cwd=alone)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(process.returncode, 0)
        self.assertNotIn('"correct"', process.stdout)


class CompareIsLikeForLike(unittest.TestCase):
    def write(self, directory, days):
        directory.mkdir(parents=True, exist_ok=True)
        record = {"config": {"workload": "unicast-week", "trace": 0,
                             "seed": 1, "days": days},
                  "machine": {"cores": 4},
                  "metrics": {"ops_per_s": {"value": 1.0e6, "unit": "1/s"}}}
        (directory / "unicast-week-seed1-trace0.json").write_text(json.dumps(record))

    def compare(self, base, new):
        return subprocess.run([sys.executable, str(HERE / "compare.py"),
                               str(base), str(new)],
                              capture_output=True, text=True)

    def test_refuses_different_configuration(self):
        base, new, same = (SCRATCH / "base", SCRATCH / "new", SCRATCH / "same")
        self.write(base, 7)
        self.write(new, 0.5)
        self.write(same, 7)
        refused = self.compare(base, new)
        accepted = self.compare(base, same)
        for directory in (base, new, same):
            shutil.rmtree(directory, ignore_errors=True)
        self.assertEqual(refused.returncode, 2)
        self.assertIn("config.days", refused.stderr)
        self.assertEqual(accepted.returncode, 0, accepted.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
