"""JSON document schemas used by the command-line interface.

A system document holds n, m, R, one coupling variant (raw C, or complex
Lq/Lp as separate real and imaginary arrays) and one scattering variant
(raw Sigma, or complex S).  It holds no tolerance: the rank-threshold
scale comes from the command line alone.  A decomposition report holds
the transformation, the transformed matrices, the state labels, and the
residual summary.  Documents are written as
``json.dumps(payload, indent=2, sort_keys=True)`` writes them, with floats
in their shortest round-trip representation, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import DocumentError
from .kalman import KalmanDecomposition
from .linalg import TolerancePolicy
from .model import PhysicalSpec, QuadratureSystem, build_system, from_physical

SCHEMA_VERSION = 1
NUMBER = (int, float)
# the exact types of matrix entries as json.load returns them
_ENTRY_TYPES = frozenset(NUMBER)
_INF = float("inf")
_FLOAT_MAX = float(np.finfo(float).max)


def _is_a(value, kind) -> bool:
    # bool subclasses int, but JSON true and false are neither counts nor numbers
    return isinstance(value, kind) and not isinstance(value, bool)


def _require(data: dict, field: str, kind):
    """The value of a present field of type ``kind``: a type, or NUMBER."""
    if field not in data:
        raise DocumentError(field, "missing")
    value = data[field]
    if not _is_a(value, kind):
        expected = "number" if kind is NUMBER else kind.__name__
        raise DocumentError(field, f"expected {expected}, got {type(value).__name__}")
    return value


def _array(data: dict, field: str, shape: tuple[int, int]) -> np.ndarray:
    raw = _require(data, field, list)
    # np.array would parse "1" and true.  A parsed document passes this test
    # in one pass per row; anything else (a subclass such as np.float64, or a
    # bad entry) takes the entry loop, which names the first bad type.  Rows
    # that are not lists fail the shape check below.
    if not all(type(row) is list and _ENTRY_TYPES.issuperset(map(type, row)) for row in raw):
        for row in raw:
            for entry in row if isinstance(row, list) else (row,):
                if not _is_a(entry, (*NUMBER, list)):
                    raise DocumentError(field, f"entries must be numbers, got {type(entry).__name__}")
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(field, f"not a numeric array: {exc}") from None
    if arr.ndim != 2 or arr.shape != shape:
        raise DocumentError(field, f"expected shape {shape}, got {arr.shape if arr.ndim == 2 else 'non-2D'}")
    if not np.isfinite(arr).all():
        raise DocumentError(field, "contains non-finite entries")
    return arr


def matrix_to_lists(arr) -> list[list[float]]:
    return np.asarray(arr, dtype=float).tolist()


def canonical_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The standard library writes indented JSON with its pure-Python encoder,
    one call per value; this writer emits a row of floats in one join.
    Dict keys must be strings.
    """
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _write(value, newline: str, out: list) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break followed by the indent of the line that holds the value."""
    # the stdlib's order of tests: bool before int, int before float
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        indent = newline + "  "
        try:
            row = ("," + indent).join(map(float.__repr__, value))
        except TypeError:  # an entry that is not a float
            row = None
        # float.__repr__ spells non-finite values nan and inf, JSON otherwise
        if row is not None and "n" not in row:
            out.append("[" + indent + row + newline + "]")
            return
        lead = "[" + indent
        for item in value:
            out.append(lead)
            _write(item, indent, out)
            lead = "," + indent
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        indent = newline + "  "
        lead = "{" + indent
        for key in sorted(value):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _write(value[key], indent, out)
            lead = "," + indent
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def system_to_document(sys: QuadratureSystem) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": sys.n,
        "m": sys.m,
        "R": matrix_to_lists(sys.R),
        "coupling": {"C": matrix_to_lists(sys.C)},
        "scattering": {"Sigma": matrix_to_lists(sys.Sigma)},
    }


def physical_to_document(spec: PhysicalSpec, R) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": spec.n,
        "m": spec.m,
        "R": matrix_to_lists(R),
        "coupling": {
            "Lq_re": matrix_to_lists(spec.Lq.real),
            "Lq_im": matrix_to_lists(spec.Lq.imag),
            "Lp_re": matrix_to_lists(spec.Lp.real),
            "Lp_im": matrix_to_lists(spec.Lp.imag),
        },
        "scattering": {
            "S_re": matrix_to_lists(spec.S.real),
            "S_im": matrix_to_lists(spec.S.imag),
        },
    }


def parse_system_document(data) -> QuadratureSystem:
    """Validate a system document and build the system it describes.

    Raises DocumentError naming the offending field, or the library's own
    error when the matrices violate an invariant of the system.
    """
    if not isinstance(data, dict):
        raise DocumentError("document", "top level must be a JSON object")
    schema = _require(data, "schema", int)
    if schema != SCHEMA_VERSION:
        raise DocumentError("schema", f"unsupported version {schema}, expected {SCHEMA_VERSION}")
    n = _require(data, "n", int)
    m = _require(data, "m", int)
    if n < 1 or m < 1:
        raise DocumentError("n" if n < 1 else "m", "must be a positive integer")
    R = _array(data, "R", (2 * n, 2 * n))

    coupling = _require(data, "coupling", dict)
    raw_c = "C" in coupling
    physical_c = any(key in coupling for key in ("Lq_re", "Lq_im", "Lp_re", "Lp_im"))
    if raw_c == physical_c:
        raise DocumentError("coupling", "exactly one of the C or Lq/Lp variants must be present")

    scattering = _require(data, "scattering", dict)
    raw_s = "Sigma" in scattering
    physical_s = any(key in scattering for key in ("S_re", "S_im"))
    if raw_s == physical_s:
        raise DocumentError("scattering", "exactly one of the Sigma or S variants must be present")
    if raw_c != raw_s:
        raise DocumentError("coupling", "coupling and scattering variants must match (both raw or both physical)")

    if "tolerance" in data:
        raise DocumentError("tolerance", "the rank scale is set by --tolerance, not by the document")

    if raw_c:
        C = _array(coupling, "C", (2 * m, 2 * n))
        Sigma = _array(scattering, "Sigma", (2 * m, 2 * m))
    else:
        Lq = (_array(coupling, "Lq_re", (m, n))
              + 1j * _array(coupling, "Lq_im", (m, n)))
        Lp = (_array(coupling, "Lp_re", (m, n))
              + 1j * _array(coupling, "Lp_im", (m, n)))
        S = (_array(scattering, "S_re", (m, m))
             + 1j * _array(scattering, "S_im", (m, m)))
        C, Sigma = from_physical(PhysicalSpec(S=S, Lq=Lq, Lp=Lp))
    return build_system(R, C, Sigma)


def decomposition_to_report(dec: KalmanDecomposition, policy: TolerancePolicy) -> dict:
    checks = dec.residual_report
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "tolerance_policy": {"scale": policy.scale},
        "dims": {"k": dec.k, "l": dec.l, "d": dec.d},
        "labels": list(dec.labels),
        "V": matrix_to_lists(dec.V),
        "A_hat": matrix_to_lists(dec.A_hat),
        "B_hat": matrix_to_lists(dec.B_hat),
        "C_hat": matrix_to_lists(dec.C_hat),
        "D": matrix_to_lists(dec.D),
        "residuals": {
            "symplecticity": checks.ccr_residual,
            "pattern": checks.pattern_residual,
        },
    }


def parse_report(data, m: int) -> dict:
    """Validate the shape of a decomposition report and return its pieces.

    ``m`` is the field count of the system the report claims to decompose;
    B_hat, C_hat and D must match it.
    """
    if not isinstance(data, dict):
        raise DocumentError("report", "top level must be a JSON object")
    schema = _require(data, "schema", int)
    if schema != SCHEMA_VERSION:
        raise DocumentError("schema", f"unsupported version {schema}, expected {SCHEMA_VERSION}")
    dims = _require(data, "dims", dict)
    k = _require(dims, "k", int)
    l = _require(dims, "l", int)
    d = _require(dims, "d", int)
    if min(k, l, d) < 0:
        raise DocumentError("dims", "k, l, d must be nonnegative")
    n = k + l + d
    out = {
        "k": k, "l": l, "d": d,
        "labels": _require(data, "labels", list),
        "V": _array(data, "V", (2 * n, 2 * n)),
        "A_hat": _array(data, "A_hat", (2 * n, 2 * n)),
        "B_hat": _array(data, "B_hat", (2 * n, 2 * m)),
        "C_hat": _array(data, "C_hat", (2 * m, 2 * n)),
        "D": _array(data, "D", (2 * m, 2 * m)),
    }
    residuals = _require(data, "residuals", dict)
    # reports written before the factorization left the decomposition also
    # carry "reconstruction", which is not read
    for field in ("symplecticity", "pattern"):
        value = _require(residuals, field, NUMBER)
        # exact for ints too, which may lie beyond float64
        if not abs(value) <= _FLOAT_MAX:
            raise DocumentError(f"residuals.{field}", "must be finite")
    out["residuals"] = residuals
    if len(out["labels"]) != 2 * n:
        raise DocumentError("labels", f"expected {2 * n} labels, got {len(out['labels'])}")
    return out
