"""Per-input outcomes of a benchmark workload, and the flips between two checkouts.

    python3 tools/outcomes.py run --checkout DIR --workload W --seed N [N ...] [--tiny]
    python3 tools/outcomes.py diff A B

``run`` imports ``symkal`` from ``DIR/src`` and builds the inputs with
``DIR/perfbench/workloads.py``, runs every input once in this process with
BLAS on one thread, judges each output with the workload's own check, and
prints one tab-separated line per input:

    seed/index  label  outcome  failing checks  sha256  report sha256

The outcome is ``ok``, ``exit_<code>`` for a CLI call that exits nonzero,
the class of the exception a library call raised, or ``incorrect.<reason>``
for an output the check rejects.  The failing checks name the
``*_ok`` fields of a ConsistencyError's report that are False, ``-``
otherwise.  The first hash covers V, A_hat, B_hat, C_hat and (k, l, d)
of a library result, the bytes of the file
a CLI case writes, or the class and message of the exception a failed op
raised.  The second covers the repr of a library result's residual
report, and is ``-`` for every other outcome, so a field added to the
report moves only it.

``diff`` reads two such files of the same inputs and prints the count of
each outcome on both sides, the verified count per seed, how many flips
leave ``ok``, reach ``ok`` and reach ``incorrect.*``, the number of
successes whose hashes all agree, and the number of failures whose failing
checks moved.  It then lists every input whose outcome is the same on both
sides but whose first hash is not, every one whose first hash agrees but
whose report hash does not, and every input whose outcome differs.  It
exits 1 when any input flipped or changed either hash, 0 when both files
agree.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _hashes(result) -> tuple:
    """(hash of the result, hash of its residual report or ``-``)."""
    if isinstance(result, BaseException):
        return _sha256(f"{type(result).__name__}: {result}".encode()), "-"
    if isinstance(result, str):
        with open(result, "rb") as handle:
            return _sha256(handle.read()), "-"
    import numpy as np
    arrays = (result.V, result.A_hat, result.B_hat, result.C_hat)
    return (_sha256(*(np.ascontiguousarray(array, dtype=float).tobytes() for array in arrays),
                    repr((result.k, result.l, result.d)).encode()),
            _sha256(repr(result.residual_report).encode()))


def _failing_checks(exc) -> str:
    """The ``*_ok`` fields of the exception's report that are False, in
    field order, without their suffix; ``-`` for none or no report."""
    report = getattr(exc, "report", None)
    if report is None:
        return "-"
    failing = [name[:-3] for name, ok in vars(report).items()
               if name.endswith("_ok") and not ok]
    return ",".join(failing) or "-"


def outcome_lines(checkout: str, workload: str, seeds, tiny: bool):
    root = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import symkal
    if os.path.dirname(os.path.abspath(symkal.__file__)) != os.path.join(root, "src", "symkal"):
        raise SystemExit(f"symkal imported from {symkal.__file__}, expected {root}/src")
    import workloads

    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            for index, case in enumerate(workloads.build(workload, seed, workdir, tiny)):
                checks = "-"
                try:
                    result = case.op()
                except workloads.ExitCode as exc:
                    outcome, hashes = f"exit_{exc.code}", _hashes(exc)
                except Exception as exc:  # every library failure is an outcome to record
                    outcome, checks, hashes = type(exc).__name__, _failing_checks(exc), _hashes(exc)
                else:
                    reason = case.check(result)
                    outcome = "ok" if reason is None else f"incorrect.{reason}"
                    hashes = _hashes(result)
                yield "\t".join((f"{seed}/{index}", case.label, outcome, checks, *hashes))


def read_outcomes(path: str) -> dict:
    """{seed/index: (label, outcome, checks, sha, report sha)} of a file ``run`` wrote."""
    table = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            key, *fields = line.rstrip("\n").split("\t")
            table[key] = tuple(fields)
    return table


def differing(a: dict, b: dict) -> list:
    """Inputs whose outcome or either hash differs between two files of the same inputs."""
    return [key for key in a if a[key][1] != b[key][1] or a[key][3:] != b[key][3:]]


def diff_lines(a: dict, b: dict):
    if a.keys() != b.keys():
        raise SystemExit(f"the files cover different inputs: {len(a.keys() ^ b.keys())} "
                         "appear in one only")
    counts_a = Counter(row[1] for row in a.values())
    counts_b = Counter(row[1] for row in b.values())
    yield "outcome\tA\tB"
    for outcome in sorted(counts_a.keys() | counts_b.keys()):
        yield f"{outcome}\t{counts_a[outcome]}\t{counts_b[outcome]}"
    yield "seed\tverified A\tverified B"
    seeds = sorted({key.split("/")[0] for key in a}, key=int)
    for seed in seeds:
        ok_a, ok_b = (sum(row[1] == "ok" for key, row in side.items()
                          if key.split("/")[0] == seed) for side in (a, b))
        yield f"{seed}\t{ok_a}\t{ok_b}"
    flips = [key for key in a if a[key][1] != b[key][1]]
    left = sum(a[key][1] == "ok" for key in flips)
    reached = sum(b[key][1] == "ok" for key in flips)
    wrong = sum(b[key][1].startswith("incorrect.") for key in flips)
    yield f"flips leaving ok: {left}, reaching ok: {reached}, reaching incorrect: {wrong}"
    both = [key for key in a if a[key][1] == b[key][1] == "ok"]
    same = sum(a[key][3:] == b[key][3:] for key in both)
    yield f"byte-identical successes: {same} of {len(both)}"
    moved = sum(a[key][1] == b[key][1] and a[key][2] != b[key][2] for key in a)
    yield f"same outcome, other failing checks: {moved}"
    kept = [key for key in a if a[key][1] == b[key][1]]
    changed = [key for key in kept if a[key][3] != b[key][3]]
    report_only = [key for key in kept if a[key][3] == b[key][3] and a[key][4] != b[key][4]]
    for title, keys in (("other hash", changed), ("same hash, other report", report_only)):
        yield f"same outcome, {title}: {len(keys)}"
        for key in keys:
            yield f"{key}\t{a[key][0]}\t{a[key][1]}"
    yield f"flips: {len(flips)}"
    for key in flips:
        label, outcome_a, checks_a, _, _ = a[key]
        _, outcome_b, checks_b, _, _ = b[key]
        yield f"{key}\t{label}\t{outcome_a} [{checks_a}] -> {outcome_b} [{checks_b}]"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="one line per input of a workload")
    run.add_argument("--checkout", required=True)
    run.add_argument("--workload", required=True,
                     choices=("cli_small", "wide_stack", "structured_split"))
    run.add_argument("--seed", type=int, nargs="+", required=True)
    run.add_argument("--tiny", action="store_true")
    diff = commands.add_parser("diff", help="compare two files that run wrote")
    diff.add_argument("a")
    diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        for line in outcome_lines(args.checkout, args.workload, args.seed, args.tiny):
            print(line, flush=True)
        return 0
    a, b = read_outcomes(args.a), read_outcomes(args.b)
    for line in diff_lines(a, b):
        print(line, flush=True)
    return 1 if differing(a, b) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
