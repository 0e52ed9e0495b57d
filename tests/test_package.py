import ast
import subprocess
import sys
from pathlib import Path

import symkal

SOURCE = Path(symkal.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def test_all_names_resolve():
    missing = [name for name in symkal.__all__ if not hasattr(symkal, name)]
    assert not missing
    assert len(set(symkal.__all__)) == len(symkal.__all__)


def _threshold_sites(tree: ast.AST, function: str = "") -> list[str]:
    """Functions that read EPS or call .cutoff(, one entry per use."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sites += _threshold_sites(node, node.name)
            continue
        if isinstance(node, ast.Name) and node.id == "EPS":
            sites.append(function)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "cutoff"):
            sites.append(function)
        sites += _threshold_sites(node, function)
    return sites


def test_rank_cutoffs_live_in_policy():
    # every rank decision goes through TolerancePolicy.decide
    sites = {path.name: _threshold_sites(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py")) if path.name != "linalg.py"}
    assert {name: found for name, found in sites.items() if found} == {}


def _has_default(value: ast.expr | None) -> bool:
    """Whether a dataclass field's right-hand side gives it a default: any
    value except a field(...) call that passes neither ``default`` nor
    ``default_factory``."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and ast.unparse(value.func) in ("field", "dataclasses.field"):
        return any(keyword.arg in ("default", "default_factory") for keyword in value.keywords)
    return True


def _settable(tree: ast.AST, module: str, owner: str = "") -> list[tuple[str, str, str]]:
    """(module, function or class, name) of every defaulted parameter and
    every dataclass field with a default; methods are named Class.method."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{owner}.{node.name}" if owner else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            found += [(module, name, arg.arg) for arg in defaulted]
            found += _settable(node, module, name)
        elif isinstance(node, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                found += [(module, node.name, item.target.id) for item in node.body
                          if isinstance(item, ast.AnnAssign) and _has_default(item.value)]
            found += _settable(node, module, node.name)
        else:
            found += _settable(node, module, owner)
    return found


# Every value a caller can leave at a default.  A new option has to be added
# here, so that it shows up in review; one with a single value in use is a
# constant instead.
SETTABLE_VALUES = [
    ("cli", "main", "argv"),
    ("errors", "ValidationError.__init__", "residual"),
    ("errors", "ValidationError.__init__", "detail"),
    ("factorization", "one_sided_symplectic_svd", "policy"),
    ("factorization", "factor_count_oracles", "policy"),
    ("factorization", "verify_factorization", "policy"),
    ("kalman", "kalman_decompose", "policy"),
    ("kalman", "refine", "policy"),
    ("linalg", "TolerancePolicy", "scale"),
    ("linalg", "numerical_rank", "policy"),
    ("linalg", "skew_canonical", "policy"),
    ("linalg", "skew_canonical", "bound"),
    ("model", "build_system", "Sigma"),
    ("optomech", "run", "policy"),
]


def test_settable_counts_only_fields_with_defaults():
    source = """
@dataclass
class Spec:
    plain: int
    hidden: int = field(repr=False)
    valued: int = field(default=0, repr=False)
    made: list = field(default_factory=list)
    given: int = 1
"""
    found = _settable(ast.parse(source), "spec")
    assert found == [("spec", "Spec", "valued"), ("spec", "Spec", "made"),
                     ("spec", "Spec", "given")]


def test_settable_values():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _settable(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == sorted(SETTABLE_VALUES)


def _cached_properties(tree: ast.AST, module: str) -> list[tuple[str, str]]:
    """(module, Class.member) of every member decorated as a cached property."""
    return [(module, f"{node.name}.{item.name}")
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(ast.unparse(d).endswith("cached_property") for d in item.decorator_list)]


# Every result computed on first read rather than when its owner is built.
# A new one has to be added here, with a measurement that it pays for itself.
CACHED_PROPERTIES = [
    ("model", "QuadratureSystem.C_sharp"),
    ("model", "KrylovMatrices.controllability"),
]


def test_cached_properties():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += _cached_properties(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == sorted(CACHED_PROPERTIES)


def test_failing_property_test_is_reported(tmp_path):
    # a failing @given test makes hypothesis import libcst for its patch
    # file; the warnings that import raises must not abort the session
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def _eig_uses(tree: ast.AST) -> list[int]:
    """Lines that call an ``eig`` attribute (np.linalg.eig, scipy.linalg.eig)
    or import ``eig`` from numpy.linalg or scipy.linalg."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "eig"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg")
              and any(alias.name == "eig" for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_no_general_eigensolver():
    # the Hautus margin calls ggev on the identity pencil, which only
    # permutes; geev's scaling balance returned a wrong eigenvector on the
    # refined optomechanical demo
    uses = {path.name: _eig_uses(ast.parse(path.read_text()))
            for path in sorted(SOURCE.glob("*.py"))}
    assert {name: lines for name, lines in uses.items() if lines} == {}
