import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import structured_split_input
from symkal import ConsistencyError, kalman_decompose, random_system, verify_decomposition

ROOT = Path(__file__).resolve().parents[1]
OUTCOMES = ROOT / "tools" / "outcomes.py"


def _outcomes(*args, check=True) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(OUTCOMES), *args], capture_output=True,
                          text=True, check=check, timeout=300)


@pytest.mark.parametrize("workload", ["cli_small", "wide_stack", "structured_split"])
def test_outcomes_of_a_checkout_against_itself(tmp_path, workload):
    files = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.tsv"
        path.write_text(_outcomes("run", "--checkout", str(ROOT), "--workload", workload,
                                  "--seed", "11", "--tiny").stdout)
        files.append(str(path))
    rows = [line.split("\t") for line in Path(files[0]).read_text().splitlines()]
    assert rows and all(len(row) == 6 and row[0].startswith("11/") for row in rows)
    # every outcome, a failure's too, carries a hash; a library result's
    # report carries one of its own, anything else "-"
    assert all(len(row[4]) == 64 for row in rows)
    assert all(row[5] == "-" or len(row[5]) == 64 for row in rows)
    report = _outcomes("diff", *files).stdout.splitlines()
    assert f"byte-identical successes: {len(rows)} of {len(rows)}" in report
    assert report[-1] == "flips: 0"


ROWS = [
    ("11/0", "n=3 kld=1,1,1", "ok", "-", "a" * 64, "f" * 64),
    ("11/1", "n=4 kld=2,1,1", "RankAmbiguityError", "-", "b" * 64, "-"),
    ("11/2", "n=4 kld=1,2,1", "ConsistencyError", "pattern", "c" * 64, "-"),
]


def _write(path, rows):
    path.write_text("".join("\t".join(row) + "\n" for row in rows))
    return str(path)


def test_diff_of_a_file_against_itself_exits_0(tmp_path):
    path = _write(tmp_path / "a.tsv", ROWS)
    done = _outcomes("diff", path, path, check=False)
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert "byte-identical successes: 1 of 1" in lines
    assert "same outcome, other hash: 0" in lines
    assert "same outcome, same hash, other report: 0" in lines


@pytest.mark.parametrize("index", range(len(ROWS)))
def test_diff_of_an_edited_hash_exits_1_and_names_the_input(tmp_path, index):
    edited = list(ROWS)
    edited[index] = ROWS[index][:4] + ("d" * 64, ROWS[index][5])
    done = _outcomes("diff", _write(tmp_path / "a.tsv", ROWS), _write(tmp_path / "b.tsv", edited),
                     check=False)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert "same outcome, other hash: 1" in lines
    assert "same outcome, same hash, other report: 0" in lines
    assert f"{ROWS[index][0]}\t{ROWS[index][1]}\t{ROWS[index][2]}" in lines
    assert lines[-1] == "flips: 0"


def test_diff_of_an_edited_report_hash_exits_1_and_names_the_input(tmp_path):
    edited = list(ROWS)
    edited[0] = ROWS[0][:5] + ("d" * 64,)
    done = _outcomes("diff", _write(tmp_path / "a.tsv", ROWS), _write(tmp_path / "b.tsv", edited),
                     check=False)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert "byte-identical successes: 0 of 1" in lines
    assert lines[-4:] == ["same outcome, other hash: 0",
                          "same outcome, same hash, other report: 1",
                          "11/0\tn=3 kld=1,1,1\tok", "flips: 0"]


def test_diff_of_a_flip_exits_1(tmp_path):
    flipped = list(ROWS)
    flipped[1] = ("11/1", "n=4 kld=2,1,1", "ok", "-", "e" * 64, "f" * 64)
    done = _outcomes("diff", _write(tmp_path / "a.tsv", ROWS), _write(tmp_path / "b.tsv", flipped),
                     check=False)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-2:] == [
        "flips: 1", "11/1\tn=4 kld=2,1,1\tRankAmbiguityError [-] -> ok [-]"]


@pytest.fixture
def outcomes(monkeypatch):
    """tools/outcomes.py as a module.  Importing it pins BLAS to one thread
    through the environment, which monkeypatch puts back afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("outcomes", OUTCOMES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failing_checks_name_every_false_ok_field(outcomes):
    dec = kalman_decompose(structured_split_input(11, 0)[0])
    assert outcomes._failing_checks(ConsistencyError("passed", dec.residual_report)) == "-"
    # a decomposition of another system: its subspace is neither invariant
    # nor dark, while V stays symplectic
    report = verify_decomposition(random_system(3, 2, seed=5), dec)
    assert outcomes._failing_checks(ConsistencyError("other", report)) == "invariance,kernel"
    # any report with *_ok fields, whatever their names
    Report = dataclasses.make_dataclass("Report", [("a_ok", bool), ("value", float),
                                                   ("b_ok", bool), ("c_ok", bool)])
    failing = ConsistencyError("made up", Report(a_ok=False, value=0.0, b_ok=True, c_ok=False))
    assert outcomes._failing_checks(failing) == "a,c"
    assert outcomes._failing_checks(ValueError("no report")) == "-"
