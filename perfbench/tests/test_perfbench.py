"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark binaries through run.py (into CARGO_TARGET_DIR or
.bench_build) and checks their inputs, references and output format.
About 30 seconds.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

WORKLOADS = run.WORKLOADS
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def setUpModule():
    global EXE
    EXE = {trace: run.build(run.binary(trace)) for trace in (0, 1)}
    if None in EXE.values():
        raise RuntimeError("benchmark build failed")


def bench(*args, trace=0):
    return subprocess.run([EXE[trace], *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=300)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_run(workload, trace, *extra, seed=1):
    return bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--tiny", "--expected",
                 os.path.join(BENCH, "expected.json"), *extra, trace=trace)


class Inputs(unittest.TestCase):
    def dump(self, workload, seed):
        p = bench("--dump-inputs", "--workload", workload, "--seed",
                  str(seed), "--expected",
                  os.path.join(BENCH, "expected.json"))
        self.assertEqual(p.returncode, 0, p.stderr)
        return p.stdout

    def test_same_seed_same_inputs_and_digests(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.dump(w, 1), self.dump(w, 1))

    def test_other_seed_other_inputs_still_pass_reference(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = json.loads(self.dump(w, 1)), json.loads(self.dump(w, 7))
                self.assertNotEqual(a["inputs"], b["inputs"])
                self.assertEqual(b["problems"], 0)
                if w == "kernels":
                    self.assertGreater(b["oracle_pairs"], 1000)
                    self.assertEqual(b["oracle_executed"], b["programs"])


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, metrics, listed):
        for name, m in metrics.items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(m), {"value", "unit"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIsInstance(m["value"], (int, float))
        self.assertEqual(set(metrics), {m["name"] for m in listed})
        units = {m["name"]: m["unit"] for m in listed}
        for name, m in metrics.items():
            self.assertEqual(m["unit"], units[name], name)

    def test_tiny_run_of_each_workload_passes_reference(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    p = tiny_run(w, trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    r = last_json(p)
                    self.assertEqual(set(r), {"correct", "attempted", "failed",
                                              "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertGreater(r["attempted"], 0)
                    self.assertEqual(r["failed"], 0)
                    key = "per_layer" if trace else "end_to_end"
                    self.check_metrics(r["metrics"], self.spec[key])

    def test_traced_counts_show_the_stressed_layer(self):
        want = {
            "kernels": lambda m: m["core.memo.hit_ratio"] < 0.05
            and m["core.batch.accept_ratio"] == 0,
            "bigprog": lambda m: 0.85 < m["core.memo.hit_ratio"] < 0.95
            and 0.03 < m["core.batch.accept_ratio"] < 0.08,
            "batchheavy": lambda m: m["core.batch.accept_ratio"] > 0.9,
            "serve": lambda m: m["core.batch.accept_ratio"] == 0
            and m["serve.handle_us"] > 0,
        }
        for w, ok in want.items():
            with self.subTest(workload=w):
                p = tiny_run(w, 1)
                self.assertEqual(p.returncode, 0, p.stderr)
                metrics = {k: v["value"]
                           for k, v in last_json(p)["metrics"].items()}
                self.assertTrue(ok(metrics), metrics)

    def test_output_differing_from_reference_fails_the_run(self):
        with open(os.path.join(BENCH, "expected.json")) as f:
            expected = json.load(f)
        expected["batchheavy"]["1"] = "0" * 16
        first = next(iter(expected["serve"]))
        expected["serve"][first] = "0" * 16
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         dir=run.build_dir()) as f:
            json.dump(expected, f)
            f.flush()
            for w in ("batchheavy", "serve"):
                with self.subTest(workload=w):
                    p = bench("--workload", w, "--seed", "1", "--seconds",
                              "1", "--tiny", "--expected", f.name)
                    self.assertNotEqual(p.returncode, 0)
                    r = last_json(p)
                    self.assertFalse(r["correct"])
                    self.assertGreater(r["failed"], 0)

    def test_corrupted_reference_fails_the_oracle_check(self):
        # The Oracle check runs on the reference analysis of each kernel's
        # source, the graph every op is compared with: with one edge of
        # each reference graph dropped, kernels must fail at any seed.
        p = tiny_run("kernels", 0, "--corrupt-reference", seed=7)
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("oracle: kernel", p.stderr)
        r = last_json(p)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertEqual(tiny_run("kernels", 0, seed=7).returncode, 0)


if __name__ == "__main__":
    unittest.main()
