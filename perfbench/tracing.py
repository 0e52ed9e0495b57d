"""Spans around the calls into each layer, recorded from outside the library.

A traced run replaces public names where the calling module looks them up
(``symkal.kalman.one_sided_symplectic_svd``, ``symkal.cli.kalman_decompose``,
``numpy.linalg.svd``, ...) with wrappers that record a span: name, start,
end, parent span, op id, whether the call raised, and a size figure.  The
wrappers record only while an op runs, so the benchmark's own checks stay
out of the trace, and ``uninstall`` puts every original back.  Per-layer
figures are derived from the spans at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np
import numpy.linalg

import symkal.cli
import symkal.factorization
import symkal.kalman
import symkal.linalg
import symkal.model
import symkal.optomech

NAME, START, END, PARENT, OP, OK, SIZE = range(7)

LINALG = ("numerical_rank", "skew_canonical", "nullspace_rows",
          "symplectic_gram_schmidt", "principal_angles")
LAPACK = ("svd", "eigh", "eigvalsh", "eig", "cholesky", "qr", "inv", "solve",
          "lstsq", "pinv", "cond", "det", "slogdet", "matrix_rank")


def _svd_flops(shape, full_matrices=True, compute_uv=True):
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        return 4 * m * n * n - 4 * n ** 3 / 3
    if full_matrices:
        return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    return 14 * m * n * n + 8 * n ** 3


def lapack_flops(name, args, kwargs) -> float:
    """Textbook operation count of one call, computed from operand shapes
    (Golub and Van Loan); complex operands count four real operations."""
    a = np.asarray(args[0]) if args else np.asarray(kwargs.get("a"))
    if a.ndim < 2:
        return 0.0
    m, n = a.shape[-2:]
    if name in ("svd", "pinv", "lstsq", "matrix_rank", "cond"):
        if name == "svd":
            flops = _svd_flops(a.shape,
                               kwargs.get("full_matrices", args[1] if len(args) > 1 else True),
                               kwargs.get("compute_uv", args[2] if len(args) > 2 else True))
        else:
            flops = _svd_flops(a.shape, False, name in ("pinv", "lstsq"))
    elif name == "eigh":
        flops = 9 * n ** 3
    elif name == "eigvalsh":
        flops = 4 * n ** 3 / 3
    elif name == "eig":
        flops = 25 * n ** 3
    elif name == "cholesky":
        flops = n ** 3 / 3
    elif name == "qr":
        flops = 4 * m * n * min(m, n) - 2 * (m + n) * min(m, n) ** 2 + 4 * min(m, n) ** 3 / 3
    elif name == "inv":
        flops = 2 * n ** 3
    elif name == "solve":
        b = np.asarray(args[1]) if len(args) > 1 else np.asarray(kwargs.get("b"))
        rhs = b.shape[-1] if b.ndim == a.ndim else 1
        flops = 2 * n ** 3 / 3 + 2 * n * n * rhs
    else:  # det, slogdet
        flops = 2 * n ** 3 / 3
    return float(flops) * (4 if np.iscomplexobj(a) else 1)


def _stack_bytes(args, kwargs, out):
    return float(out.controllability.nbytes + out.observability.nbytes)


def _text_bytes(args, kwargs, out):
    return float(len(out.encode("utf-8")))


def _patch_table():
    """(module, attribute, span name, size function) for every traced name."""
    K, F, M, O, C = (symkal.kalman, symkal.factorization, symkal.model,
                     symkal.optomech, symkal.cli)
    table = [
        (K, "krylov_matrices", "model.krylov_matrices", _stack_bytes),
        (K, "one_sided_symplectic_svd", "factorization.one_sided_symplectic_svd", None),
        (K, "kalman_decompose", "kalman.kalman_decompose", None),
        (C, "kalman_decompose", "kalman.kalman_decompose", None),
        (O, "kalman_decompose", "kalman.kalman_decompose", None),
        (O, "refine", "kalman.refine", None),
        (C, "class_dimension_oracles", "kalman.class_dimension_oracles", None),
        (C, "parse_system_document", "documents.parse", None),
        (C, "parse_report", "documents.parse", None),
        (C, "decomposition_to_report", "documents.report", None),
        (C, "canonical_json", "documents.json", _text_bytes),
        (C, "main", "cli.main", None),
    ]
    for module in (K, F, M, O, symkal.linalg):
        for name in LINALG:
            if hasattr(module, name):
                table.append((module, name, f"linalg.{name}", None))
    for name in LAPACK:
        table.append((numpy.linalg, name, f"lapack.{name}", "lapack"))
    return table


class Tracer:
    """Records spans while ``active``; one instance per run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self._saved = []

    def _wrap(self, fn, name, size):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, True, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if size == "lapack":
                span[SIZE] = lapack_flops(name[len("lapack."):], args, kwargs)
            elif size is not None:
                span[SIZE] = size(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, size in _patch_table():
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path, header: dict):
        header = dict(header, fields=["id", "name", "start", "end", "parent", "op", "ok", "size"])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                handle.write(json.dumps([i] + span) + "\n")


def layer_metrics(spans, ops: int, time_scale: float = 1.0) -> dict:
    """Per-op layer figures: counts, inclusive times, self times and sizes.

    Times are multiplied by ``time_scale``, the run's reference seconds per
    measured second.
    """
    ops = max(ops, 1)
    children = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    raised = defaultdict(int)
    size = defaultdict(float)
    fact_end = {}
    for i, span in enumerate(spans):
        name, dur = span[NAME], span[END] - span[START]
        total[name] += dur
        calls[name] += 1
        raised[name] += not span[OK]
        size[name] += span[SIZE]
        if span[PARENT] >= 0:
            children[span[PARENT]] += dur
            if name == "factorization.one_sided_symplectic_svd" and span[OK]:
                fact_end[span[PARENT]] = span[END]
    self_time = defaultdict(float)
    tail = 0.0
    for i, span in enumerate(spans):
        self_time[span[NAME]] += span[END] - span[START] - children[i]
        if span[NAME] == "kalman.kalman_decompose" and i in fact_end:
            tail += span[END] - fact_end[i]

    def ms(x):
        return 1e3 * x * time_scale / ops

    fact = "factorization.one_sided_symplectic_svd"
    lapack_names = [name for name in total if name.startswith("lapack.")]
    out = {
        "model.krylov_matrices.calls": calls["model.krylov_matrices"] / ops,
        "model.krylov_matrices.ms": ms(total["model.krylov_matrices"]),
        "model.krylov_matrices.stack_mb": size["model.krylov_matrices"] / 1e6 / ops,
        f"{fact}.calls": calls[fact] / ops,
        f"{fact}.ms": ms(total[fact]),
        f"{fact}.fail_frac": raised[fact] / calls[fact] if calls[fact] else 0.0,
        "kalman.kalman_decompose.calls": calls["kalman.kalman_decompose"] / ops,
        "kalman.kalman_decompose.self_ms": ms(self_time["kalman.kalman_decompose"]),
        "kalman.verify_tail_ms": ms(tail),
        "kalman.refine.ms": ms(total["kalman.refine"]),
        "kalman.class_dimension_oracles.ms": ms(total["kalman.class_dimension_oracles"]),
    }
    for name in LINALG:
        out[f"linalg.{name}.calls"] = calls[f"linalg.{name}"] / ops
        out[f"linalg.{name}.ms"] = ms(total[f"linalg.{name}"])
    out.update({
        "lapack.svd.calls": calls["lapack.svd"] / ops,
        "lapack.eigh.calls": calls["lapack.eigh"] / ops,
        "lapack.calls": sum(calls[name] for name in lapack_names) / ops,
        "lapack.ms": ms(sum(total[name] for name in lapack_names)),
        "lapack.gflop_est": sum(size[name] for name in lapack_names) / 1e9 / ops,
        "documents.parse.ms": ms(total["documents.parse"]),
        "documents.report.ms": ms(total["documents.report"]),
        "documents.json.ms": ms(total["documents.json"]),
        "documents.json_kb": size["documents.json"] / 1e3 / ops,
        "cli.main.self_ms": ms(self_time["cli.main"]),
    })
    return out
