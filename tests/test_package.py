import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import symkal

SOURCE = Path(symkal.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def test_all_names_resolve():
    missing = [name for name in symkal.__all__ if not hasattr(symkal, name)]
    assert not missing
    assert len(set(symkal.__all__)) == len(symkal.__all__)


def _subscripted(node: ast.AST) -> set[str]:
    """The arrays an expression subscripts, as source text; a shape is not
    one."""
    return {ast.unparse(sub.value) for sub in ast.walk(node) if isinstance(sub, ast.Subscript)
            and not (isinstance(sub.value, ast.Attribute) and sub.value.attr == "shape")}


def _compares_entries_of_one_array(node: ast.AST) -> bool:
    """Whether a comparison has two sides that subscript the same array, as
    a ratio test of singular values such as sv[-1] < tol * sv[0] does."""
    if not isinstance(node, ast.Compare):
        return False
    seen = set()
    for side in [node.left, *node.comparators]:
        arrays = _subscripted(side)
        if arrays & seen:
            return True
        seen |= arrays
    return False


def _threshold_sites(tree: ast.AST, function: str = "") -> list[str]:
    """Functions that read EPS, call .cutoff( or compare two entries of one
    array, one entry per use."""
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
        elif _compares_entries_of_one_array(node):
            sites.append(function)
        sites += _threshold_sites(node, function)
    return sites


def test_threshold_sites_include_ratio_tests():
    source = """
def ratio(sv_b):
    if sv_b[-1] < MIN_RCOND * sv_b[0]:
        raise ValueError
    return sv_b[0] > 0.5 and other[0] <= sv_b[1] and sv_b.shape[0] == sv_b.shape[1]
"""
    assert _threshold_sites(ast.parse(source)) == ["ratio"]


def test_rank_cutoffs_live_in_policy():
    # every rank decision goes through TolerancePolicy.decide: outside
    # linalg, nothing reads EPS, calls .cutoff( or tests one entry of an
    # array against another
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
    derived: int = field(init=False, repr=False)
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
CACHED_PROPERTIES = []


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


def _module_level_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every import that runs when the module is
    imported: any outside a function body."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        found += _module_level_imports(node)
    return found


def test_scipy_is_imported_only_inside_functions():
    # each scipy routine is loaded by the first call that runs it, so that
    # importing the package and the wide route do not pay for scipy.linalg
    uses = {path.name: [line for line, module in _module_level_imports(ast.parse(path.read_text()))
                        if module.split(".")[0] == "scipy"]
            for path in sorted(SOURCE.glob("*.py"))}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_module_level_imports_reader():
    source = """
import os
from scipy import linalg
if True:
    import scipy.linalg
class Holder:
    from scipy.linalg import expm
def f():
    from scipy.linalg import block_diag
"""
    assert _module_level_imports(ast.parse(source)) == [
        (2, "os"), (3, "scipy"), (5, "scipy.linalg"), (7, "scipy.linalg")]


def _run_fresh(script: str) -> None:
    """Run a script in a fresh interpreter that imports this symkal."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


def test_wide_route_loads_no_scipy():
    # a fresh interpreter: the import, --version and a wide decomposition
    # leave scipy unloaded; a narrow one loads scipy's compiled LAPACK
    # module alone, which a later import of scipy.linalg.lapack then binds
    _run_fresh("""
        import sys
        import numpy as np
        import symkal
        import symkal.cli
        from symkal import build_system, kalman_decompose
        from symkal.linalg import _lapack

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        try:
            symkal.cli.main(["--version"])
        except SystemExit:
            pass
        rng = np.random.default_rng(7)
        R0 = rng.standard_normal((6, 6))
        wide = kalman_decompose(build_system(0.5 * (R0 + R0.T), rng.standard_normal((8, 6))))
        assert (wide.k, wide.l, wide.d) == (3, 0, 0)
        assert loaded() == [], loaded()
        narrow = kalman_decompose(build_system(0.5 * (R0 + R0.T), rng.standard_normal((2, 6))))
        assert narrow.residual_report.passed
        assert "scipy.linalg._flapack" in loaded(), loaded()
        assert "scipy.linalg" not in loaded() and "scipy.linalg.lapack" not in loaded(), loaded()
        import scipy.linalg.lapack
        for name in ("dgehrd", "dorghr", "dggev"):
            assert getattr(scipy.linalg.lapack, name) is getattr(_lapack(), name), name
        """)


def test_demo_loads_no_scipy_linalg():
    # the demo takes the kernel route, the QZ margin and refine, all on the
    # compiled LAPACK module
    _run_fresh("""
        import sys
        from symkal import kalman, optomech

        qz = []
        dggev = kalman._dggev

        def counted(*args, **kwargs):
            qz.append(1)
            return dggev(*args, **kwargs)

        kalman._dggev = counted
        optomech.run(1.0, 1.0, 1.0)
        assert qz, "no QZ ran"
        assert "scipy.linalg._flapack" in sys.modules
        assert "scipy.linalg" not in sys.modules, sorted(sys.modules)
        """)
