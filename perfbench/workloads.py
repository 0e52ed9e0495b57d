"""Seeded inputs and operations of the benchmark workloads.

A workload is a list of cases built once at set-up from the seed.  A case
holds the operation, a closed-loop call into the library or its CLI, and
the check of its output.  The inputs are made here; the library only ever
sees them as arguments.  Shapes follow a fixed grid in every seed and only
matrix entries and example parameters are drawn from the seed, so that runs
with different seeds do the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import symkal.cli
import symkal.kalman
from symkal import QuadratureSystem, random_system

import checks

WHY = {
    "cli_small": "CLI decompose+verify round trips on small documents plus optomech example "
                 "calls; JSON parsing, report building and the CLI carry half of each op",
    "wide_stack": "library decompositions with 8-16 fields per mode, so the 4nm-row observability "
                  "stack, its factorization and LAPACK dominate each call",
    "structured_split": "systems with known k, l, d > 0, n 3-48, two fields, built by an "
                        "orthogonal symplectic scramble; the only inputs reaching the kernel "
                        "branch and today's failures",
}

# n modes and m fields of the wide_stack grid.
WIDE_N = (4, 5, 6)
WIDE_M = (8, 10, 12, 14, 16)
# structured_split takes every mode count from 3 to STRUCTURED_MAX_N,
# STRUCTURED_REPEAT times with different class splits, so that its latency
# quantiles sit on a smooth cost curve rather than between coarse sizes.
# The latency median falls near n = 20-30, where about half the ops fail at
# a cost that varies with the input; twice the splits up to n = 34 halve
# the seed-to-seed spread of that median, and from STRUCTURED_SPARSE_N on,
# where a case costs 100-250 ms, half as many keep a round near 20 s.
STRUCTURED_MAX_N = 48
STRUCTURED_REPEAT = 10
STRUCTURED_SPARSE_N = 35
# Document shapes of cli_small: every (n, m) with n 2-6 and m 1-2, twice,
# and one optomech example call after every EXAMPLE_EVERY documents.
CLI_N = (2, 3, 4, 5, 6)
CLI_M = (1, 2)
CLI_REPEAT = 2
EXAMPLE_EVERY = 5


class ExitCode(Exception):
    """A CLI call returned a nonzero exit code."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit code {code}")


@dataclass
class Case:
    label: str
    op: Callable[[], object]
    check: Callable[[object], "str | None"]


def _library_case(label, system: QuadratureSystem, raw, truth) -> Case:
    def op():
        # looked up at call time, so that a traced run sees its wrapper
        return symkal.kalman.kalman_decompose(system)

    def check(dec):
        return checks.check_decomposition(raw, truth, dec.V, dec.A_hat, dec.B_hat, dec.C_hat,
                                          dec.D, (dec.k, dec.l, dec.d))

    return Case(label, op, check)


def wide_stack(seed: int, tiny: bool = False) -> list[Case]:
    rng = np.random.default_rng([seed, 1])
    grid = [(2, 3)] if tiny else [(n, m) for n in WIDE_N for m in WIDE_M]
    cases = []
    for n, m in grid:
        system = random_system(n, m, seed=int(rng.integers(2 ** 31)))
        raw = (system.R, system.C, system.Sigma)
        # a generic random draw is fully controllable and observable
        cases.append(_library_case(f"n={n} m={m}", system, raw, (n, 0, 0)))
    return cases


def _orthogonal_symplectic(n: int, rng) -> np.ndarray:
    """[[Re U, -Im U], [Im U, Re U]] for a Haar-random unitary U."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])


def structured_raw(k: int, l: int, d: int, rng):
    """Raw (R, C, Sigma) of a system whose class sizes are exactly (k, l, d).

    Direct sum of three blocks, then scrambled:
    - a core of k modes with a random energy matrix and one field of random
      coupling: generically controllable and observable;
    - l modes with H = q^T A^T p + q^T S q / 2 and a second field coupled to
      the positions only, so dq/dt = A q exactly: the positions are
      observable through (A, c) and uncontrollable, their conjugate momenta
      are controllable and unobservable;
    - d uncoupled modes with a random energy matrix.
    The state is scrambled by a Haar-random orthogonal symplectic map T,
    the fields by another (W), and the feedthrough is a third.  T^{-1} = T^T,
    so the class sizes are preserved exactly and no input is screened with
    the code under test.
    """
    n, m = k + l + d, 2
    R = np.zeros((2 * n, 2 * n))
    C = np.zeros((2 * m, 2 * n))
    core = list(range(k)) + list(range(n, n + k))
    q, p = list(range(k, k + l)), list(range(n + k, n + k + l))
    rest = list(range(k + l, n)) + list(range(n + k + l, 2 * n))
    if k:
        R0 = rng.standard_normal((2 * k, 2 * k)) / np.sqrt(2 * k)
        R[np.ix_(core, core)] = 0.5 * (R0 + R0.T)
        C[np.ix_([0, m], core)] = rng.standard_normal((2, 2 * k)) / np.sqrt(2)
    if l:
        drift = rng.standard_normal((l, l)) / np.sqrt(l)
        S0 = rng.standard_normal((l, l)) / np.sqrt(l)
        R[np.ix_(q, q)] = 0.5 * (S0 + S0.T)
        R[np.ix_(p, q)] = drift
        R[np.ix_(q, p)] = drift.T
        C[np.ix_([1, m + 1], q)] = rng.standard_normal((2, l)) / np.sqrt(2)
    if d:
        R0 = rng.standard_normal((2 * d, 2 * d)) / np.sqrt(2 * d)
        R[np.ix_(rest, rest)] = 0.5 * (R0 + R0.T)
    T = _orthogonal_symplectic(n, rng)
    W = _orthogonal_symplectic(m, rng)
    R = T @ R @ T.T
    return 0.5 * (R + R.T), W @ C @ T.T, _orthogonal_symplectic(m, rng)


def structured_shapes(tiny: bool = False) -> list[tuple[int, int, int]]:
    """(k, l, d) of every structured case, the same in every seed.

    For each size the splits sweep k and l across their range; k >= 1 carries
    the core field, and l >= 1, d >= 1 make every case reach the kernel branch.
    """
    sizes = (3, 4) if tiny else range(3, STRUCTURED_MAX_N + 1)
    shapes = []
    for n in sizes:
        repeat = (1 if tiny else STRUCTURED_REPEAT // 2 if n >= STRUCTURED_SPARSE_N
                  else STRUCTURED_REPEAT)
        for j in range(repeat):
            k = min(1 + int((n - 2) * (j + 0.5) / repeat), n - 2)
            l = min(1 + int((n - k - 1) * ((0.3 + 0.618 * (n + j)) % 1.0)), n - k - 1)
            shapes.append((k, l, n - k - l))
    return shapes


def structured_split(seed: int, tiny: bool = False) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    cases = []
    for k, l, d in structured_shapes(tiny):
        raw = structured_raw(k, l, d, rng)
        system = QuadratureSystem(R=raw[0], C=raw[1], Sigma=raw[2])
        cases.append(_library_case(f"n={k + l + d} kld={k},{l},{d}", system, raw, (k, l, d)))
    return cases


def run_cli(argv) -> None:
    """One in-process CLI call with its output captured; nonzero exit raises."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = symkal.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code:
        raise ExitCode(code)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _round_trip_case(label, doc, report, raw, truth) -> Case:
    def op():
        run_cli(["decompose", doc, "--output", report])
        run_cli(["verify", doc, report])
        return report

    def check(path):
        return checks.check_report(raw, truth, _read_json(path))

    return Case(label, op, check)


def _example_case(label, omega, lam, gamma, output) -> Case:
    argv = ["example", "--omega", repr(omega), "--lambda", repr(lam), "--gamma", repr(gamma),
            "--output", output]

    def op():
        run_cli(argv)
        return output

    def check(path):
        payload = _read_json(path)
        raw = checks.matrices_from_document(payload["system"])
        reason = checks.check_report(raw, (1, 1, 1), payload["report"])
        if reason is None:
            reason = checks.check_report(raw, (1, 1, 1), payload["refinement"]["report"])
        if reason is None:
            refined = np.array(payload["refinement"]["report"]["V"])
            if np.linalg.norm(refined - checks.OPTOMECH_REFINED_V) > 1e-8:
                reason = "refined V"
        return reason

    return Case(label, op, check)


def cli_small(seed: int, workdir: str, tiny: bool = False) -> list[Case]:
    """Documents are written at set-up with ``symkal generate``."""
    rng = np.random.default_rng([seed, 3])
    grid = [(2, 1)] if tiny else [(n, m) for n in CLI_N for m in CLI_M] * CLI_REPEAT
    cases = []
    for i, (n, m) in enumerate(grid):
        doc = os.path.join(workdir, f"system{i}.json")
        run_cli(["generate", "--n", str(n), "--m", str(m),
                 "--seed", str(int(rng.integers(2 ** 31))), "--output", doc])
        raw = checks.matrices_from_document(_read_json(doc))
        report = os.path.join(workdir, f"report{i}.json")
        cases.append(_round_trip_case(f"n={n} m={m}", doc, report, raw, (n, 0, 0)))
        if tiny or (i + 1) % EXAMPLE_EVERY == 0:
            omega, lam, gamma = (float(x) for x in rng.uniform(0.5, 2.0, size=3))
            output = os.path.join(workdir, f"example{i}.json")
            cases.append(_example_case("example", omega, lam, gamma, output))
    return cases


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Case]:
    if workload == "cli_small":
        return cli_small(seed, workdir, tiny)
    if workload == "wide_stack":
        return wide_stack(seed, tiny)
    if workload == "structured_split":
        return structured_split(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")
