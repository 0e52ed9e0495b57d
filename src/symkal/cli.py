"""Command-line interface.

Subcommands: decompose, verify, example, generate.  ``decompose`` and
``example`` print their result as JSON, or with ``--format text`` as a
summary of k, l, d, the labels and the residuals.  ``--tolerance`` is the
only rank-threshold scale.  Exit codes: 0 success, 2 validation failure,
3 ambiguous rank decision, 4 output write failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, optomech
from .documents import (
    SCHEMA_VERSION,
    canonical_json,
    decomposition_to_report,
    matrix_to_lists,
    parse_report,
    parse_system_document,
    physical_to_document,
    system_to_document,
)
from .errors import ConsistencyError, DocumentError, RankAmbiguityError, SymkalError
from .kalman import (
    CHECK_TOL,
    LABEL_MEANINGS,
    _transformed,
    kalman_decompose,
    state_labels,
    verify_transformation,
)
from .linalg import TolerancePolicy
from .model import random_system

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_AMBIGUOUS = 3
EXIT_WRITE = 4
EXIT_VERIFY = 5


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symkal",
        description="Kalman decomposition of quadrature-form linear systems "
                    "by real symplectic transformations.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance", type=float, default=1.0,
                       help="rank threshold scale (default 1.0)")
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="json: the full report; text: k, l, d, the state labels "
                            "and the residual summary")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p_de = sub.add_parser("decompose", help="write a full decomposition report")
    p_de.add_argument("input", help="system document path")
    common(p_de)

    p_ve = sub.add_parser("verify", help="recheck a stored report against its system")
    p_ve.add_argument("input", help="system document path")
    p_ve.add_argument("report", help="decomposition report path")

    p_ex = sub.add_parser("example", help="emit the built-in optomechanical example")
    p_ex.add_argument("--omega", type=float, default=1.0)
    p_ex.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_ex.add_argument("--gamma", type=float, default=1.0)
    common(p_ex)

    p_ge = sub.add_parser("generate", help="write a random system document")
    p_ge.add_argument("--n", type=int, required=True, help="mode count")
    p_ge.add_argument("--m", type=int, required=True, help="field count")
    p_ge.add_argument("--seed", type=int, default=0)
    p_ge.add_argument("--output", default=None)
    return parser


def _emit(text: str, output_path) -> int:
    """Write text to the output path, or to stdout without one; the exit code."""
    try:
        if output_path is None:
            sys.stdout.write(text)
        else:
            with open(output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_WRITE
    return EXIT_OK


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError("document", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError("document", f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError("document", f"{path} is not valid JSON: {exc}") from exc


def _analyze_text(dec) -> str:
    lines = [
        f"k={dec.k} l={dec.l} d={dec.d}",
        "labels: " + " ".join(dec.labels),
    ]
    for label in sorted(set(dec.labels)):
        lines.append(f"  {label}: {LABEL_MEANINGS[label]}")
    checks = dec.residual_report
    lines.append(f"symplecticity residual: {checks.ccr_residual:.3e}")
    lines.append(f"pattern residual: {checks.pattern_residual:.3e} (allowed {checks.pattern_scale:.3e})")
    lines.append(f"observability margin: {checks.observability_margin:.3e}")
    return "\n".join(lines) + "\n"


def cmd_decompose(args) -> int:
    system = parse_system_document(_load_json(args.input))
    policy = TolerancePolicy(scale=args.tolerance)
    dec = kalman_decompose(system, policy=policy)
    report = decomposition_to_report(dec, policy)
    if args.format == "json":
        text = canonical_json(report)
    else:
        text = _analyze_text(dec)
    return _emit(text, args.output)


def cmd_verify(args) -> int:
    system = parse_system_document(_load_json(args.input))
    stored = parse_report(_load_json(args.report), system.m)
    n = system.n
    k, l, d = stored["k"], stored["l"], stored["d"]
    if k + l + d != n:
        sys.stderr.write(f"dims: k+l+d = {k + l + d} != n = {n}\n")
        return EXIT_VERIFY

    V = stored["V"]
    checks = verify_transformation(system, V, k, l, d, stored["A_hat"], stored["B_hat"],
                                   stored["C_hat"])
    consistency = max(float(np.linalg.norm(stored[name] - value)) for name, value in
                      zip(("A_hat", "B_hat", "C_hat", "D"), _transformed(system, V)))
    consistency_ok = consistency <= CHECK_TOL * (1.0 + float(np.linalg.norm(stored["A_hat"])))

    results = dict(checks.as_dict(), transformed_matrices=consistency)
    for name, value in results.items():
        sys.stdout.write(f"{name}: {value:.6e}\n" if isinstance(value, float)
                         else f"{name}: {value}\n")
    failures = [name for name, ok in (
        ("symplecticity", checks.ccr_ok),
        ("transformed_matrices", consistency_ok),
        ("pattern", checks.pattern_ok),
        ("observability", checks.observability_ok),
        ("labels", list(stored["labels"]) == list(state_labels(k, l, d))),
    ) if not ok]
    if failures:
        sys.stderr.write("failed checks: " + ", ".join(failures) + "\n")
        return EXIT_VERIFY
    sys.stdout.write("all checks passed\n")
    return EXIT_OK


def cmd_example(args) -> int:
    policy = TolerancePolicy(scale=args.tolerance)
    system, dec, refined, pair, a, b = optomech.run(
        args.omega, args.lam, args.gamma, policy=policy)
    payload = {
        "schema": SCHEMA_VERSION,
        "parameters": {"omega": args.omega, "lambda": args.lam, "gamma": args.gamma},
        "coefficients": {"a": a, "b": b},
        "system": physical_to_document(optomech.physical_spec(args.gamma),
                                       optomech.hamiltonian_matrix(args.omega, args.lam)),
        "report": decomposition_to_report(dec, policy),
        "refinement": {
            "X": matrix_to_lists(pair.X),
            "Y": matrix_to_lists(pair.Y),
            "report": decomposition_to_report(refined, policy),
        },
    }
    if args.format == "json":
        text = canonical_json(payload)
    else:
        lines = [
            f"omega={args.omega} lambda={args.lam} gamma={args.gamma}",
            f"a={a!r} b={b!r}",
            _analyze_text(dec).rstrip("\n"),
            "refined transformation:",
        ]
        for row in refined.V:
            lines.append("  [" + " ".join(f"{x: .6f}" for x in row) + "]")
        text = "\n".join(lines) + "\n"
    return _emit(text, args.output)


def cmd_generate(args) -> int:
    system = random_system(args.n, args.m, seed=args.seed)
    text = canonical_json(system_to_document(system))
    return _emit(text, args.output)


_DISPATCH = {
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "example": cmd_example,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except RankAmbiguityError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_AMBIGUOUS
    except ConsistencyError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_VERIFY
    except SymkalError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
