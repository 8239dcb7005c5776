"""Tests of the benchmark itself (not collected by the repository's pytest run).

    python3 perfbench/selftest.py

Run from the root of a memesim checkout.  Takes a few minutes: every
workload runs once untraced and once traced, plus two runs against
deliberately broken copies of the checkout made under .perfbench_work/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("subcritical", "supercritical", "sweep", "analyze_fit")


def bench(root: Path, workload: str, trace: int):
    """Run the benchmark for about one operation; return (exit code, last line)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def broken_copy(name: str) -> Path:
    """A copy of the checkout's src, configs and perfbench to be broken."""
    root = ROOT / ".perfbench_work" / f"selftest-{name}"
    shutil.rmtree(root, ignore_errors=True)
    for part in ("src", "configs", "perfbench"):
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


class BenchmarkTest(unittest.TestCase):
    def test_metrics_units_and_traced_digests(self):
        # Every printed metric has the unit BENCHMARK.json gives it, and the
        # traced operations write the same bytes as the untraced ones.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(ROOT, workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))
                    if trace:
                        report = json.loads(
                            (ROOT / ".perfbench_work" / "reports"
                             / f"{workload}-seed3-trace1.json").read_text())
                        runs = report["results"]
                        plain = [op["digests"] for op in runs["untraced"]["ops"]]
                        traced = [op["digests"] for op in runs["traced"]["ops"]]
                        self.assertTrue(plain and all(plain))
                        self.assertEqual(traced, plain)

    def test_wrong_pinned_digest_fails(self):
        root = broken_copy("pins")
        pins_path = root / "perfbench" / "pins.json"
        pins = json.loads(pins_path.read_text())
        for entry in pins["subcritical"].values():
            entry["events.log"] = "0" * 64
        pins_path.write_text(json.dumps(pins))
        code, result = bench(root, "subcritical", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        shutil.rmtree(root)

    def test_corrupted_artifact_fails(self):
        # A program that writes one byte differently in hits.csv.
        root = broken_copy("artifact")
        logio = root / "src" / "memesim" / "logio.py"
        text = logio.read_text()
        self.assertIn('"meme_id,hits\\n"', text)
        logio.write_text(text.replace('"meme_id,hits\\n"', '"meme_id,hitz\\n"'))
        for workload in ("subcritical", "analyze_fit"):
            with self.subTest(workload=workload):
                code, result = bench(root, workload, 0)
                self.assertNotEqual(code, 0)
                self.assertEqual(result["failed"], result["attempted"])
        shutil.rmtree(root)

    def test_refuses_to_run_without_a_checkout(self):
        root = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        code, result = bench(root, "subcritical", 0)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        shutil.rmtree(root)


if __name__ == "__main__":
    unittest.main(verbosity=2)
