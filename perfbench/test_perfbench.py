#!/usr/bin/env python3
"""Tests of the benchmark itself: the correctness gate, the compare command,
and the refusal to run without engine sources.

    python3 perfbench/test_perfbench.py

The gate test builds the benchmark into .bench_build/ first (a few minutes
when cold). Scratch files go under .bench_out/.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def scratch_dir():
    run.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


class GateTest(unittest.TestCase):
    def test_gate_rejects_off_by_one(self):
        run.build()
        done = subprocess.run([str(run.SELFTEST)], capture_output=True,
                              text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("perfbench selftest: ok", done.stdout)


class CompareTest(unittest.TestCase):
    BASE = {"arrivals_per_s": 1000.0, "setup_s": 0.5, "peak_rss_mib": 20.0,
            "model_results": 5000, "model_done_frac": 0.99}

    def write_set(self, root, name, scale=None, results_delta=0,
                  broken=None, missing=()):
        """Ten runs of count3 with a little run-to-run spread, saved as
        compare.py collect saves them. `scale` multiplies chosen metrics,
        `results_delta` shifts model_results, `broken` maps a seed to how
        its run fails ("crash": exit 2 and no result line, "incorrect":
        exit 1 and "correct": false), and seeds in `missing` have no run."""
        d = Path(root) / name
        d.mkdir()
        for seed in range(1, 11):
            if seed in missing:
                continue
            jitter = 1.0 + 0.01 * ((seed % 3) - 1)
            metrics = {}
            for m in SPEC["end_to_end"]:
                value = self.BASE[m["name"]]
                if m["name"] not in ("model_results", "model_done_frac"):
                    value *= jitter
                value *= (scale or {}).get(m["name"], 1.0)
                if m["name"] == "model_results":
                    value += results_delta
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            how = (broken or {}).get(seed)
            header = {"workload": "count3", "seed": seed, "trace": 0,
                      "fingerprint": {}, "errors": [],
                      "outcome": [{"results": 5000 + results_delta}]}
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": metrics}
            stdout = json.dumps({"perfbench": header}) + "\n"
            code, stderr = 0, []
            if how == "crash":
                code, stderr = 2, ["perfbench: replay printed no result"]
            else:
                if how == "incorrect":
                    code = 1
                    header["errors"] = ["plain replay of input 3 diverged"]
                    result.update(correct=False, failed=1)
                    stdout = json.dumps({"perfbench": header}) + "\n"
                stdout += json.dumps(result) + "\n"
            rec = {"workload": "count3", "seed": seed, "exit": code,
                   "stdout": stdout, "stderr_tail": stderr}
            (d / f"count3-s{seed}.json").write_text(json.dumps(rec))
        return str(d)

    def diff(self, base, new):
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"), "diff", base, new],
            capture_output=True, text=True, timeout=60)

    def test_identical_sets_pass(self):
        with scratch_dir() as root:
            base = self.write_set(root, "base")
            same = self.write_set(root, "same")
            done = self.diff(base, same)
            self.assertEqual(done.returncode, 0, done.stdout)
            self.assertNotIn("FLAG", done.stdout)

    def test_flags_planted_regression(self):
        with scratch_dir() as root:
            base = self.write_set(root, "base")
            slow = self.write_set(root, "slow", scale={"arrivals_per_s": 0.7})
            done = self.diff(base, slow)
            self.assertEqual(done.returncode, 1, done.stdout)
            self.assertIn("FLAG count3 arrivals_per_s", done.stdout)
            self.assertNotIn("FLAG count3 setup_s", done.stdout)

    def test_change_within_bound_passes(self):
        with scratch_dir() as root:
            base = self.write_set(root, "base")
            near = self.write_set(root, "near", scale={"arrivals_per_s": 0.97})
            self.assertEqual(self.diff(base, near).returncode, 0)

    def test_flags_any_deterministic_change(self):
        with scratch_dir() as root:
            base = self.write_set(root, "base")
            moved = self.write_set(root, "moved", results_delta=1)
            done = self.diff(base, moved)
            self.assertEqual(done.returncode, 1, done.stdout)
            self.assertIn("FLAG count3 seed 1 model_results", done.stdout)
            self.assertIn("deterministic outcome changed", done.stdout)

    def test_flags_failed_and_missing_runs(self):
        with scratch_dir() as root:
            base = self.write_set(root, "base")
            bad = self.write_set(root, "bad", broken={2: "crash",
                                                      5: "incorrect"},
                                 missing=(7,))
            done = self.diff(base, bad)
            self.assertEqual(done.returncode, 1, done.stdout)
            self.assertIn("FLAG new count3 seed 2: failed run, exit 2; "
                          "no result line", done.stdout)
            self.assertIn("FLAG new count3 seed 5: failed run, exit 1; "
                          "correct: false", done.stdout)
            self.assertIn("FLAG count3 seed 7: run on the base side only",
                          done.stdout)

    def test_flags_a_side_with_no_good_run(self):
        with scratch_dir() as root:
            base = self.write_set(root, "base")
            dead = self.write_set(root, "dead",
                                  broken={s: "crash" for s in range(1, 11)})
            done = self.diff(base, dead)
            self.assertEqual(done.returncode, 1, done.stdout)
            self.assertIn("FLAG count3 arrivals_per_s: figures on the base "
                          "side only", done.stdout)
            self.assertNotIn("nothing flagged", done.stdout)

    def test_spread_flags_failed_runs(self):
        with scratch_dir() as root:
            bad = self.write_set(root, "bad", broken={4: "incorrect"})
            done = subprocess.run(
                [sys.executable, str(HERE / "compare.py"), "spread", bad],
                capture_output=True, text=True, timeout=60)
            self.assertEqual(done.returncode, 1, done.stdout)
            self.assertIn("FLAG run count3 seed 4: failed run", done.stdout)


class NoSourcesTest(unittest.TestCase):
    def test_refuses_to_run_without_engine_sources(self):
        with scratch_dir() as root:
            shutil.copy(HERE.parent / "BENCHMARK.json", root)
            shutil.copytree(HERE, Path(root) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "count3",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
