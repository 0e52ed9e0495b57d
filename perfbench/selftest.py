"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

- a tiny-size run of each workload prints every metric BENCHMARK.json
  names, with its unit, in both trace modes;
- a corrupted decomposition is counted under fail.incorrect;
- two runs with the same seed give the same ok_frac and LAPACK call counts,
  and runs of different length the same attempted and failed counts;
- without the library sources next to it the benchmark exits nonzero and
  prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import attempt  # noqa: E402

WORKLOADS = ("cli_small", "wide_stack", "structured_split")


def bench(workload, trace, seed=3, cwd=ROOT, script=os.path.join(HERE, "run.py"), seconds=0.3):
    proc = subprocess.run([sys.executable, script, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.spec = json.load(handle)

    def test_workload_reasons_match(self):
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]}, workloads.WHY)

    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = result(bench(workload, trace))
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    got = {name: m["unit"] for name, m in out["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_same_seed_same_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
                for name in first:
                    if name.startswith("lapack.") and name.endswith(".calls"):
                        self.assertEqual(first[name]["value"], second[name]["value"], name)
                first, second = (result(bench(workload, 0))["metrics"] for _ in range(2))
                self.assertEqual(first["ok_frac"]["value"], second["ok_frac"]["value"])

    def test_counts_do_not_depend_on_run_length(self):
        """Outcomes are counted once per input, however many rounds fit."""
        short, long = (result(bench("structured_split", 0, seconds=s)) for s in (0.3, 3.0))
        self.assertEqual((short["attempted"], short["failed"]),
                         (long["attempted"], long["failed"]))

    def test_without_sources_exits_nonzero(self):
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_out"))
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = bench("wide_stack", 0, cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class Accounting(unittest.TestCase):
    def _corrupted(self, change=None):
        case = workloads.wide_stack(seed=5, tiny=True)[0]
        dec = case.op()
        fields = {name: getattr(dec, name) for name in
                  ("V", "A_hat", "B_hat", "C_hat", "D", "k", "l", "d")}
        if change is not None:
            fields.update(change(fields))
        bad = SimpleNamespace(**fields)
        outcomes = Counter()
        _, ok = attempt(workloads.Case("corrupted", lambda: bad, case.check), outcomes)
        return ok, outcomes

    def test_correct_decomposition_passes(self):
        ok, outcomes = self._corrupted()
        self.assertTrue(ok)
        self.assertEqual(outcomes, Counter(ok=1))

    def test_perturbed_v_is_incorrect(self):
        rng = np.random.default_rng(0)
        ok, outcomes = self._corrupted(
            lambda f: {"V": f["V"] + 1e-6 * rng.standard_normal(f["V"].shape)})
        self.assertFalse(ok)
        self.assertEqual(outcomes["incorrect"], 1)
        self.assertEqual(outcomes["incorrect.symplecticity"], 1)

    def test_wrong_block_is_incorrect(self):
        ok, outcomes = self._corrupted(lambda f: {"A_hat": f["A_hat"] * 1.001})
        self.assertFalse(ok)
        self.assertEqual(outcomes["incorrect.transfer"], 1)

    def test_wrong_counts_are_incorrect(self):
        ok, outcomes = self._corrupted(lambda f: {"k": f["k"] - 1, "d": f["d"] + 1})
        self.assertFalse(ok)
        self.assertEqual(outcomes["incorrect.dims"], 1)

    def test_library_failure_is_counted_by_class(self):
        from symkal import RankAmbiguityError

        def fails():
            raise RankAmbiguityError("forced")

        outcomes = Counter()
        _, ok = attempt(workloads.Case("fails", fails, lambda out: None), outcomes)
        self.assertFalse(ok)
        self.assertEqual(outcomes, Counter(RankAmbiguityError=1))


class StructuredInputs(unittest.TestCase):
    def test_every_shape_reaches_the_kernel_branch(self):
        for k, l, d in workloads.structured_shapes():
            self.assertGreaterEqual(min(k, l, d), 1)

    def test_scramble_is_orthogonal_symplectic(self):
        rng = np.random.default_rng(1)
        T = workloads._orthogonal_symplectic(5, rng)
        J = np.block([[np.zeros((5, 5)), np.eye(5)], [-np.eye(5), np.zeros((5, 5))]])
        self.assertLess(np.linalg.norm(T @ T.T - np.eye(10)), 1e-12)
        self.assertLess(np.linalg.norm(T @ J @ T.T - J), 1e-12)

    def test_outcomes_repeat_for_a_seed(self):
        """Mid-size cases, where today's failures begin, end the same way twice."""
        cases = [case for case in workloads.structured_split(seed=104)
                 if case.label.startswith(("n=24 ", "n=28 "))]
        runs = []
        for _ in range(2):
            outcomes = []
            for case in cases:
                counter = Counter()
                attempt(case, counter)
                outcomes.append(dict(counter))
            runs.append(outcomes)
        self.assertEqual(runs[0], runs[1])

    def test_constructed_class_sizes(self):
        """Ranks of the Krylov stacks, computed here, match the built (k, l, d):
        2k + l controllable and observable directions, l of the controllable
        ones unobservable."""
        rng = np.random.default_rng(4)
        for k, l, d in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 3, 1), (3, 2, 2)]:
            A, B, C, _ = checks.state_space(*workloads.structured_raw(k, l, d, rng))
            dim = A.shape[0]
            powers = [np.linalg.matrix_power(A, j) for j in range(dim)]
            ctl = np.hstack([P @ B for P in powers])
            obs = np.vstack([C @ P for P in powers])

            def rank(M):
                sv = np.linalg.svd(M, compute_uv=False)
                return int(np.sum(sv > 1e-9 * sv[0]))

            self.assertEqual(rank(ctl), 2 * k + l)
            self.assertEqual(rank(obs), 2 * k + l)
            ctl_unobs = (rank(ctl) + (dim - rank(obs))
                         - rank(np.hstack([ctl, np.linalg.svd(obs)[2][rank(obs):].T])))
            self.assertEqual(ctl_unobs, l)


if __name__ == "__main__":
    unittest.main()
