"""Exact coefficients: a true division of two ints in ``lcoalg.scalars``
would give a float, a silent loss of exactness.  Every true division of
coefficients goes through ``scalars._div``; besides it, only the parser's
``value / rhs``, a division of two scalars, may use the ``/`` operator."""

import ast
from pathlib import Path

import lcoalg

SCALARS = Path(lcoalg.__file__).parent / "scalars.py"
ALLOWED = ["value / rhs"]


def _outside(tree: ast.AST, skip: str):
    """Every node of ``tree`` but those inside a function named ``skip``."""
    for node in ast.iter_child_nodes(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == skip):
            yield node
            yield from _outside(node, skip)


def true_divisions(path: Path = SCALARS):
    """The source of each ``/`` or ``/=`` outside the function ``_div``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        ast.unparse(node)
        for node in _outside(tree, "_div")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]


def test_every_true_division_is_exact():
    assert true_divisions() == ALLOWED


def test_a_true_division_is_found(tmp_path):
    path = tmp_path / "scalars.py"
    path.write_text(
        "def _div(a, b):\n    return Fraction(a) / b\n"
        "def _inverse(lead):\n    return 1 / lead\n"
        "class P:\n    def term(self, value, rhs):\n        value /= rhs\n"
        "        return value // rhs\n",
        encoding="utf-8")
    assert true_divisions(path) == ["1 / lead", "value /= rhs"]
