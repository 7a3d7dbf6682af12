"""Tests of the benchmark, on the small size of every workload.

Run from the repository root:

    python3 -m unittest perfbench/test_bench.py
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "synth", "synth_fn", "baselines")
# synth runs, but BENCHMARK.json leaves it out: see GLOSSARY.md.
DRIVEN = ("sweep", "synth_fn", "baselines")


def run(*args):
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--size", "small",
         "--seed", "3", "--seconds", "1"] + list(args),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if p.returncode != 0:
        raise AssertionError("run.py %s failed:\n%s" % (" ".join(args), p.stderr))
    return p.stdout.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_is_printed_with_its_unit(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(DRIVEN))
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = run("--workload", workload, "--trace", str(trace))
                    self.assertTrue(lines[-2].startswith("tags "))
                    tags = json.loads(lines[-2][len("tags "):])
                    for key in ("nproc", "ocaml", "code", "seed", "backend",
                                "pool_width"):
                        self.assertIn(key, tags)
                    r = result(lines)
                    self.assertEqual(set(r),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_tampered_reference_fails_the_check(self):
        refs = tempfile.mkdtemp()
        try:
            run("--workload", "sweep", "--write-ref", refs)
            (path,) = glob.glob(os.path.join(refs, "sweep", "*.txt"))
            with open(path) as f:
                lines = f.read().splitlines()
            tag, true_class, queries, success = lines[0].split()
            lines[0] = " ".join([tag, true_class, str(int(queries) + 1), success])
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            r = result(run("--workload", "sweep", "--refs", refs))
            self.assertFalse(r["correct"])
            self.assertGreaterEqual(r["failed"], 1)
        finally:
            shutil.rmtree(refs)

    def test_trace_overhead_is_signed(self):
        # Slowing the untraced arm makes the traced arm the faster one; the
        # overhead must then read negative, not clamped at zero.
        r = result(run("--workload", "synth_fn", "--trace", "1",
                       "--untraced-delay-ms", "300"))
        self.assertLess(r["metrics"]["trace.overhead_fraction"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
