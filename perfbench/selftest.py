"""Self-tests of the benchmark itself.  Run: python3 perfbench/selftest.py

They use the seconds-long ``smoke`` workload, so the whole file takes a
few seconds.  The name keeps pytest from collecting it with the repo's tests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import TARGETS, Tracer, _owner_and_attr  # noqa: E402

COUNT_UNITS = {"count", "B", "row", "attempt/plan", "row/row"}


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args], capture_output=True, text=True, cwd=ROOT, timeout=170
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(seed: int, trace: int) -> dict:
    return bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1", "--trace", str(trace))


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.MAIN_WORKLOADS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.PER_LAYER)


class SmokeTest(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        result = smoke(seed=3, trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, {n: u for n, u, _ in run.END_TO_END})
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_counts_repeat_exactly(self):
        first, second = smoke(seed=4, trace=1), smoke(seed=4, trace=1)
        self.assertTrue(first["correct"] and second["correct"])
        self.assertEqual({n: m["unit"] for n, m in first["metrics"].items()}, {n: u for n, u, _ in run.PER_LAYER})
        counts = [n for n, m in first["metrics"].items() if m["unit"] in COUNT_UNITS]
        self.assertIn("models.params_built", counts)
        self.assertGreater(first["metrics"]["losses.backward.rows"]["value"], 0)
        for name in counts:
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)

    def test_bare_benchmark_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], capture_output=True, text=True, cwd=bare, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_wrapped_attribute(self):
        from noisyfl import cli, config

        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in
                     (_owner_and_attr(module, dotted) for module, dotted, _, _ in TARGETS)]
        doc = run.WORKLOADS["smoke"](5)
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as out:
            tracer = Tracer()
            tracer.install()
            try:
                self.assertTrue(all(owner.__dict__[attr] is not fn for owner, attr, fn in originals))
                cli.cmd_pipeline(config.validate_config(dict(doc, output_dir=out)))
            finally:
                tracer.uninstall()
        for owner, attr, fn in originals:
            self.assertIs(owner.__dict__[attr], fn, f"{owner.__name__}.{attr}")
        layers = tracer.reduce()
        self.assertEqual(layers["cli.cmd_pipeline.calls"], 1)
        self.assertGreater(layers["cli.cmd_pipeline.s"], layers["cli.cmd_pipeline.self_s"])
        self.assertEqual(len(layers["federation.round_s"]), doc["federation"]["rounds"])


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    unittest.main()
