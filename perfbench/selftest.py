"""Checks of the benchmark itself (about 40 s):

    python3 perfbench/selftest.py

Kept out of the repository's pytest run, which collects test_*.py only.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

from run import (END_TO_END, FAMILY_S, PER_LAYER, PRINCIPAL_SEEDS, ROOT, SRC,
                 corpus_inputs, family_inputs, launch)


def traced_pass(workload: str, inputs: dict) -> dict:
    _, res = launch({"workload": workload, "mode": "pass", "trace": True,
                     "inputs": inputs})
    return res


def counters(layers: dict) -> dict:
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: v for k, v in layers.items() if units[k] != "s"}


class TracedCounts(unittest.TestCase):
    def test_corpus_counts_are_exact_and_repeat(self):
        inputs = next(corpus_inputs(random.Random(0)))
        first = traced_pass("corpus", inputs)["layers"]
        second = traced_pass("corpus", inputs)["layers"]
        self.assertEqual(first["tables.verify_table_row.calls"], 85)
        self.assertEqual(first["quartic.same_field.calls"], 85)
        self.assertEqual(counters(first), counters(second))

    def test_one_family_call_per_candidate(self):
        inputs = next(family_inputs(random.Random(0)))
        layers = traced_pass("family", inputs)["layers"]
        candidates = len(PRINCIPAL_SEEDS) * len(FAMILY_S)
        self.assertEqual(len(inputs["candidates"]), candidates)
        self.assertEqual(layers["qcurve.family.calls"], candidates)


class Rebinding(unittest.TestCase):
    def test_wrappers_match_by_identity(self):
        sys.path.insert(0, str(SRC))
        from octaq import gl2f9, hilbert, polynomials, quartic, rationals
        original_factorize = rationals.factorize
        from tracer import Tracer
        tracer = Tracer().install()
        # one wrapper, bound under every name that held the function
        self.assertIsNot(rationals.factorize, original_factorize)
        self.assertIs(quartic.factorize, rationals.factorize)
        self.assertIs(hilbert.factorize, rationals.factorize)
        # same name, unrelated functions: separate wrappers
        self.assertIsNot(gl2f9.mat_mul, polynomials.mat_mul)
        polynomials.mat_mul([[1]], [[1]])
        gl2f9.mat_mul(gl2f9.IDENTITY, gl2f9.IDENTITY)
        layers = tracer.metrics()
        self.assertEqual(layers["gl2f9.mat_mul.calls"], 1)
        self.assertEqual(
            [tracer.names[s[0]] for s in tracer.spans], ["polynomials.mat_mul"])


class Gate(unittest.TestCase):
    def test_certificate_check(self):
        sys.path.insert(0, str(SRC))
        from worker import certificate_holds
        f = [Fraction(-1), Fraction(-1), 0, 0, 1]   # x^4 - x - 1
        identity = [0, 0, 1, 0]                    # gamma = beta
        shifted = [0, 0, 1, 1]                     # gamma = beta + 1
        self.assertTrue(certificate_holds(f, identity, f))
        self.assertFalse(certificate_holds(f, shifted, f))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], list(PER_LAYER))

    def test_fails_without_the_program(self):
        here = Path(__file__).resolve().parent
        with tempfile.TemporaryDirectory(dir=here) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(here, bare / here.name,
                            ignore=shutil.ignore_patterns(
                                "tmp*", "traces", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
