import ast
from pathlib import Path

import symkal

SOURCE = Path(symkal.__file__).parent


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
    # every rank decision goes through TolerancePolicy.decide; the one other
    # use of eps is the relaxed factorization's bound on the condition of Q,
    # which judges a result rather than deciding a rank
    sites = {path.name: _threshold_sites(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py")) if path.name != "linalg.py"}
    assert {name: found for name, found in sites.items() if found} == {
        "factorization.py": ["verify_factorization"]}


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
