"""Output checks that do not reuse the code under test.

Every returned decomposition is judged on three things, all computed here
from the raw (R, C, Sigma) of the input with plain numpy:

1. the state change V is symplectic, ||V J V^T - J|| small against ||V||^2;
2. the class sizes (k, l, d) equal the truth known from how the input
   was built;
3. the controllable-and-observable block (A_co, B_co, C_co, D) reproduces
   the transfer matrix C (sI - A)^{-1} B + D of the untransformed system at
   fixed test points in the right half plane, where no pole of a quadrature
   system lies.

A check returns None when the output is correct and a short reason
otherwise; it never raises on a wrong answer.
"""

from __future__ import annotations

import numpy as np

# Rounding in V J V^T sits near eps * ||V||^2; the library's own acceptance
# threshold is 1e-9 absolute, so this only catches outright wrong V.
CCR_TOL = 1e-9
# Relative agreement demanded between the full and the co-block transfer
# matrices.  The two routes differ by the conditioning of V and of sI - A,
# which stays far below 1e4 on every workload input.
TRANSFER_TOL = 1e-7
TEST_POINTS = (0.35 + 0.8j, 0.9 - 1.7j, 0.2 + 3.1j)

# The optomechanical demo refines to this orthogonal symplectic V for every
# positive (omega, lambda, gamma): (q3, (q1+q2)/sqrt2, (q1-q2)/sqrt2) on the
# position side, mirrored on the momentum side.
_H = 1.0 / np.sqrt(2.0)
OPTOMECH_REFINED_V = np.array([
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [_H, _H, 0.0, 0.0, 0.0, 0.0],
    [_H, -_H, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, _H, _H, 0.0],
    [0.0, 0.0, 0.0, _H, -_H, 0.0],
])


def form(k: int) -> np.ndarray:
    J = np.zeros((2 * k, 2 * k))
    J[:k, k:] = np.eye(k)
    J[k:, :k] = -np.eye(k)
    return J


def state_space(R, C, Sigma):
    """(A, B, C, D) of a quadrature system: A = J R - C# C / 2, B = -C# Sigma
    with the sharp adjoint C# = -J_n C^T J_m."""
    R, C, Sigma = (np.asarray(x, dtype=float) for x in (R, C, Sigma))
    n, m = R.shape[0] // 2, C.shape[0] // 2
    C_sharp = -form(n) @ C.T @ form(m)
    return form(n) @ R - 0.5 * C_sharp @ C, -C_sharp @ Sigma, C, Sigma


def matrices_from_document(doc: dict):
    """Raw (R, C, Sigma) of a system document, in either coupling variant."""
    R = np.array(doc["R"], dtype=float)
    coupling, scattering = doc["coupling"], doc["scattering"]
    if "C" in coupling:
        return R, np.array(coupling["C"], dtype=float), np.array(scattering["Sigma"], dtype=float)
    Lq_re, Lq_im, Lp_re, Lp_im = (np.array(coupling[key], dtype=float)
                                  for key in ("Lq_re", "Lq_im", "Lp_re", "Lp_im"))
    C = np.sqrt(2.0) * np.block([[Lq_re, Lp_re], [Lq_im, Lp_im]])
    S_re, S_im = (np.array(scattering[key], dtype=float) for key in ("S_re", "S_im"))
    return R, C, np.block([[S_re, -S_im], [S_im, S_re]])


def _transfer(A, B, C, D, s):
    return C @ np.linalg.solve(s * np.eye(A.shape[0]) - A, B) + D


def check_decomposition(raw, truth, V, A_hat, B_hat, C_hat, D, dims) -> str | None:
    """Judge one decomposition of the system with raw matrices ``raw``.

    ``truth`` and ``dims`` are (k, l, d) triples: the constructed one and
    the returned one.
    """
    if tuple(dims) != tuple(truth):
        return "dims"
    V, A_hat, B_hat, C_hat, D = (np.asarray(x, dtype=float) for x in (V, A_hat, B_hat, C_hat, D))
    A, B, C, D_sys = state_space(*raw)
    n = A.shape[0] // 2
    if V.shape != (2 * n, 2 * n):
        return "shape"
    J = form(n)
    if np.linalg.norm(V @ J @ V.T - J) > CCR_TOL * max(1.0, np.linalg.norm(V) ** 2):
        return "symplecticity"
    k = dims[0]
    co = list(range(k)) + list(range(n, n + k))
    A_co, B_co, C_co = A_hat[np.ix_(co, co)], B_hat[co, :], C_hat[:, co]
    for s in TEST_POINTS:
        full = _transfer(A, B, C, D_sys, s)
        reduced = _transfer(A_co, B_co, C_co, D, s)
        if np.linalg.norm(full - reduced) > TRANSFER_TOL * max(1.0, np.linalg.norm(full)):
            return "transfer"
    return None


def check_report(raw, truth, report: dict) -> str | None:
    """Judge a decomposition report as written by ``symkal decompose``."""
    dims = report["dims"]
    return check_decomposition(raw, truth, report["V"], report["A_hat"], report["B_hat"],
                               report["C_hat"], report["D"], (dims["k"], dims["l"], dims["d"]))
