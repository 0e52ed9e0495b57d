import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OUTCOMES = ROOT / "tools" / "outcomes.py"


def _outcomes(*args) -> str:
    done = subprocess.run([sys.executable, str(OUTCOMES), *args], capture_output=True,
                          text=True, check=True, timeout=300)
    return done.stdout


@pytest.mark.parametrize("workload", ["cli_small", "wide_stack", "structured_split"])
def test_outcomes_of_a_checkout_against_itself(tmp_path, workload):
    files = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.tsv"
        path.write_text(_outcomes("run", "--checkout", str(ROOT), "--workload", workload,
                                  "--seed", "11", "--tiny"))
        files.append(str(path))
    rows = [line.split("\t") for line in Path(files[0]).read_text().splitlines()]
    assert rows and all(len(row) == 5 and row[0].startswith("11/") for row in rows)
    report = _outcomes("diff", *files).splitlines()
    assert f"byte-identical successes: {len(rows)} of {len(rows)}" in report
    assert report[-1] == "flips: 0"
