"""Module layering, read from the source: points are listed by the
enumeration module alone, so the max-min solvers and the structural
rewrites import nothing from instances (generators, oracle and IO); and
a model's rows are read as its own CSR arrays (LinearModel.rows), so no
module imports scipy.sparse."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ddu_ro")


def _imported_modules(path: str) -> set[str]:
    """The modules that path imports: those of ddu_ro by their name within
    the package, any other by its own, and what ``from`` imports of one
    by its dotted name under it (``from scipy import sparse`` gives scipy
    and scipy.sparse)."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.removeprefix("ddu_ro.") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("ddu_ro")
            if node.level or module != node.module:
                module = module.lstrip(".")
                names |= {a.name for a in node.names} if not module else {module}
            else:
                names |= {module, *(f"{module}.{a.name}" for a in node.names)}
    return names


@pytest.mark.parametrize("module", ["maxmin", "reformulations"])
def test_the_solvers_import_nothing_from_instances(module):
    imported = _imported_modules(os.path.join(SRC, module + ".py"))
    assert "backend" in imported and "instances" not in imported


@pytest.mark.parametrize("module", sorted(name[:-3] for name in os.listdir(SRC)
                                          if name.endswith(".py")))
def test_no_module_imports_scipy_sparse(module):
    imported = _imported_modules(os.path.join(SRC, module + ".py"))
    assert not [name for name in imported if name.split(".")[:2] == ["scipy", "sparse"]]


def test_every_form_of_import_is_read(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import scipy.sparse.linalg\nfrom scipy import sparse\n"
                    "from scipy.sparse import coo_array\nfrom . import backend\n")
    assert _imported_modules(str(path)) == {
        "scipy.sparse.linalg", "scipy", "scipy.sparse", "scipy.sparse.coo_array", "backend"}
