#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the driver the way run.py does, then checks that
  - one seed gives byte-identical generated inputs, and another seed
    different ones, on every workload;
  - exact counts (linked instructions, per-group node counts, VM
    dispatches) repeat exactly across two traced runs of one seed;
  - a held-out seed, never used while the benchmark was written, passes
    every output check on every workload.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["codebase", "service", "guest"]
HELD_OUT_SEED = 918273645
BINARY = None


def driver(*args):
    out = subprocess.run([BINARY, *args], stdout=subprocess.PIPE, text=True,
                         check=True, cwd=run.ROOT).stdout
    return out.splitlines()


def result(workload, seed, seconds, trace):
    lines = driver("--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--out-dir", os.path.dirname(BINARY))
    return json.loads(lines[-1])


class InputsAreDeterministic(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                args = ["--inputs", "--workload", w, "--seconds", "2"]
                a = driver(*args, "--seed", "5")
                b = driver(*args, "--seed", "5")
                c = driver(*args, "--seed", "6")
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


class ExactCountsRepeat(unittest.TestCase):
    # Counts that depend on timing (context reuse, retries) are left out.
    EXACT = ("backend.linked_instrs", "backend.emitted_instrs",
             "frontend.tokens", "frontend.syntax_nodes", "vm.dispatches",
             "vm.frames", "vm.allocs", "heap.sim_bytes_allocated")

    def exact(self, metrics):
        return {k: v["value"] for k, v in metrics.items()
                if k in self.EXACT or k.startswith("transform.") and
                v["unit"] == "count"}

    def test_traced_counts_repeat(self):
        for w in ["codebase", "guest"]:
            with self.subTest(workload=w):
                first = result(w, 3, 1, 1)
                second = result(w, 3, 1, 1)
                self.assertTrue(first["correct"] and second["correct"])
                a, b = self.exact(first["metrics"]), self.exact(second["metrics"])
                self.assertEqual(a, b)
                self.assertGreater(a["backend.linked_instrs"], 0)


class HeldOutSeedPasses(unittest.TestCase):
    def test_every_output_check_passes(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(w, HELD_OUT_SEED, 2, 0)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    BINARY, _ = run.build()
    unittest.main()
