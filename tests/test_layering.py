"""Module layering, read from the source: points are listed by the
enumeration module alone, so the max-min solvers and the structural
rewrites import nothing from instances (generators, oracle and IO)."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ddu_ro")


def _imported_modules(path: str) -> set[str]:
    """The modules that path imports: those of ddu_ro by their name within
    the package, any other by its own."""
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
    return names


@pytest.mark.parametrize("module", ["maxmin", "reformulations"])
def test_the_solvers_import_nothing_from_instances(module):
    imported = _imported_modules(os.path.join(SRC, module + ".py"))
    assert "backend" in imported and "instances" not in imported
