"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from symkal import QuadratureSystem, TolerancePolicy, build_system, jmat, sharp_adjoint

# Scrambled products carry rounding a couple of orders above the machine
# floor, so population work shares one generous-but-safe rank threshold.
POPULATION_POLICY = TolerancePolicy(scale=1e3)


def random_symplectic(half_dim: int, rng, scale: float = 0.4) -> np.ndarray:
    K0 = rng.standard_normal((2 * half_dim, 2 * half_dim))
    return expm(jmat(half_dim) @ (0.5 * (K0 + K0.T) * scale))


def random_orthogonal_symplectic(m: int, rng) -> np.ndarray:
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, _ = np.linalg.qr(A)
    return np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])


def _embed_modes(src: np.ndarray, mode_map: list[int], n_total: int) -> np.ndarray:
    """Spread a 2n_sub x 2n_sub phase-space matrix onto selected modes."""
    n_sub = src.shape[0] // 2
    idx = mode_map + [n_total + i for i in mode_map]
    out = np.zeros((2 * n_total, 2 * n_total))
    out[np.ix_(idx, idx)] = src
    return out


def _embed_coupling(src: np.ndarray, mode_map: list[int], field_map: list[int],
                    n_total: int, m_total: int) -> np.ndarray:
    m_sub = src.shape[0] // 2
    row_idx = field_map + [m_total + i for i in field_map]
    col_idx = mode_map + [n_total + i for i in mode_map]
    out = np.zeros((2 * m_total, 2 * n_total))
    out[np.ix_(row_idx, col_idx)] = src
    return out


def direct_sum(parts) -> QuadratureSystem:
    """Combine (R, C) parts into one system with identity feedthrough.

    ``parts`` is a list of (R_i, C_i); modes and fields are concatenated in
    order while keeping the positions-then-momenta layout.
    """
    n_total = sum(R.shape[0] // 2 for R, _ in parts)
    m_total = sum(C.shape[0] // 2 for _, C in parts)
    R = np.zeros((2 * n_total, 2 * n_total))
    C = np.zeros((2 * m_total, 2 * n_total))
    mode0 = field0 = 0
    for R_i, C_i in parts:
        n_i = R_i.shape[0] // 2
        m_i = C_i.shape[0] // 2
        modes = list(range(mode0, mode0 + n_i))
        fields = list(range(field0, field0 + m_i))
        R += _embed_modes(R_i, modes, n_total)
        C += _embed_coupling(C_i, modes, fields, n_total, m_total)
        mode0 += n_i
        field0 += m_i
    return build_system(R, C)


def scramble(sys: QuadratureSystem, rng, sigma: str = "identity") -> QuadratureSystem:
    """Change state coordinates by a random symplectic map (and optionally
    rotate the fields), which preserves the class dimensions."""
    T = random_symplectic(sys.n, rng)
    T_inv = sharp_adjoint(T)
    R = T_inv.T @ sys.R @ T_inv
    R = 0.5 * (R + R.T)
    C = sys.C @ T_inv
    if sigma == "identity":
        Sigma = np.eye(2 * sys.m)
    elif sigma == "orthogonal":
        Sigma = random_orthogonal_symplectic(sys.m, rng)
    else:
        Sigma = random_symplectic(sys.m, rng)
    return QuadratureSystem(R=R, C=C, Sigma=Sigma)


def structured_system(seed: int, n_co: int, n_pair: int, n_dec: int,
                      m_core: int = 1, sigma: str = "identity") -> QuadratureSystem:
    """A scrambled system with known class dimensions (k, l, d) =
    (n_co, n_pair, n_dec).

    Built as a direct sum of a fully coupled core, position-only coupled
    single modes (each contributing one conjugate nco/cno pair), and
    uncoupled modes, then conjugated by a random symplectic map.  The sizes
    come from the construction alone: a Gaussian core is fully coupled with
    probability 1.
    """
    if n_co + n_pair == 0:
        raise ValueError("at least one coupled mode is needed to carry a field")
    rng = np.random.default_rng(seed)
    parts = []
    if n_co:
        R0 = rng.standard_normal((2 * n_co, 2 * n_co))
        parts.append((0.5 * (R0 + R0.T), rng.standard_normal((2 * m_core, 2 * n_co))))
    for _ in range(n_pair):
        alpha = float(rng.uniform(0.0, 2.0))
        gamma = float(rng.uniform(0.5, 2.0))
        R_s = np.array([[alpha, 0.0], [0.0, 0.0]])
        C_s = np.array([[np.sqrt(2.0) * gamma, 0.0], [0.0, 0.0]])
        parts.append((R_s, C_s))
    if n_dec:
        R0 = rng.standard_normal((2 * n_dec, 2 * n_dec))
        parts.append((0.5 * (R0 + R0.T), np.zeros((0, 2 * n_dec))))
    return scramble(direct_sum(parts), rng, sigma=sigma)


STRUCTURED_SHAPES = [
    (1, 1, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 1, 2),
    (1, 0, 2), (0, 2, 1), (2, 1, 1), (1, 1, 2), (3, 1, 0),
    (0, 1, 1), (1, 2, 1), (2, 2, 0), (0, 3, 1), (1, 1, 0),
]


def mixed_population(count: int, base_seed: int = 0):
    """Systems alternating between generic draws (almost surely fully co)
    and structured draws with nontrivial class splits."""
    from symkal import random_system
    out = []
    for i in range(count):
        if i % 2 == 0:
            n = 1 + (i // 2) % 5
            m = 1 + (i // 3) % 3
            out.append(random_system(n, m, seed=base_seed + i))
        else:
            shape = STRUCTURED_SHAPES[i % len(STRUCTURED_SHAPES)]
            sigma = ("identity", "orthogonal", "symplectic")[i % 3]
            m_core = 1 + (i % 2 if shape[0] else 0)
            out.append(structured_system(base_seed + i, *shape,
                                         m_core=m_core, sigma=sigma))
    return out


def factor_case(seed: int, kind: str) -> np.ndarray:
    """Random factorization inputs: generic, rank-deficient, forced k = 0
    (isotropic row space), or forced l = 0 (symplectic row space)."""
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 25))
    r = int(rng.integers(1, 7))
    if kind == "generic":
        return rng.standard_normal((s, 2 * r))
    if kind == "deficient":
        rho = int(rng.integers(1, min(s, 2 * r) + 1))
        return rng.standard_normal((s, rho)) @ rng.standard_normal((rho, 2 * r))
    T = random_symplectic(r, rng)
    if kind == "k0":
        j = int(rng.integers(1, r + 1))
        return rng.standard_normal((s, j)) @ T[:, :j].T
    if kind == "l0":
        k0 = int(rng.integers(0, r + 1))
        if k0 == 0 or s < 2 * k0:
            return np.zeros((max(s, 1), 2 * r))
        cols = list(range(k0)) + list(range(r, r + k0))
        return rng.standard_normal((s, 2 * k0)) @ T[:, cols].T
    raise ValueError(kind)


FACTOR_KINDS = ("generic", "deficient", "k0", "l0")


def factor_population(count: int, base_seed: int = 1000):
    return [factor_case(base_seed + i, FACTOR_KINDS[i % 4]) for i in range(count)]


def _workloads():
    """The benchmark's generator module, from the perfbench directory."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads


def structured_split_inputs(seed: int, count: int) -> list[tuple[QuadratureSystem, tuple]]:
    """The first ``count`` inputs of the benchmark's ``structured_split``
    workload at ``seed``, each with its true (k, l, d), replayed from the
    benchmark's own generator so that the draws match the benchmark bit for
    bit."""
    workloads = _workloads()
    rng = np.random.default_rng([seed, 2])
    out = []
    for shape in workloads.structured_shapes()[:count]:
        raw = workloads.structured_raw(*shape, rng)
        out.append((QuadratureSystem(R=raw[0], C=raw[1], Sigma=raw[2]), shape))
    return out


def structured_split_input(seed: int, index: int) -> tuple[QuadratureSystem, tuple[int, int, int]]:
    """Input ``index`` of the benchmark's ``structured_split`` workload at
    ``seed`` and its true (k, l, d)."""
    return structured_split_inputs(seed, index + 1)[index]


def with_uncoupled_fields(k: int, l: int, d: int, extra: int, seed: int) -> QuadratureSystem:
    """The benchmark's two-field system of sizes (k, l, d), with ``extra``
    uncoupled fields appended: zero rows of C, and the feedthrough the
    direct sum of Sigma and an identity.  The sizes stay (k, l, d), and rank C stays at
    most 4, below 2n when n > 2, however wide C is."""
    R, C, Sigma = _workloads().structured_raw(k, l, d, np.random.default_rng(seed))
    n, m = R.shape[0] // 2, C.shape[0] // 2 + extra
    fields = [0, 1, m, m + 1]
    C_wide = np.zeros((2 * m, 2 * n))
    C_wide[fields] = C
    Sigma_wide = np.eye(2 * m)
    Sigma_wide[np.ix_(fields, fields)] = Sigma
    return QuadratureSystem(R=R, C=C_wide, Sigma=Sigma_wide)
