"""The library computes exactly and checks for real.

No floating-point module or conversion in src/sigmod8, and no `assert`
statement, which `python -O` strips: every check raises an exception.
"""
import ast
import pathlib

import sigmod8

PACKAGE = pathlib.Path(sigmod8.__file__).parent
FLOAT_MODULES = {"math", "cmath"}
# math functions that take and return Python ints exactly
INTEGER_FUNCTIONS = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial"}


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FLOAT_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] in FLOAT_MODULES:
                for alias in node.names:
                    if node.module != "math" or alias.name not in INTEGER_FUNCTIONS:
                        yield node.lineno, f"from {node.module} import {alias.name}"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                yield node.lineno, "float(...)"


def test_no_floating_point_in_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_guard_sees_each_form():
    source = (
        "import cmath\nfrom math import gcd, pi\nfrom cmath import isqrt\n"
        "import math as m\nx = float(1)\n"
    )
    assert [what for _, what in _float_uses(ast.parse(source))] == [
        "import cmath", "from math import pi", "from cmath import isqrt", "import math",
        "float(...)",
    ]


def _asserts(tree):
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_no_assert_in_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in _asserts(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_assert_guard_sees_each_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\nassert f(1)\n"
    assert _asserts(ast.parse(source)) == [3, 5]
    assert _asserts(ast.parse("raise ValueError('checked')\n")) == []
