"""The library computes without floats: no module of src/moduliq imports
cmath, writes a float or complex literal, calls float() or complex(), or
reads math.sqrt, math.exp, math.pi or math.log.  math.inf stays allowed: it
is the sentinel of padic_valuation(0) and of an identically zero degree-12
discriminant.  Floats belong to the numeric oracles of the tests alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "moduliq"
FLOAT_MATH = {"sqrt", "exp", "pi", "log"}


def float_uses(source):
    """(line, what) for every float construct in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import cmath") for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "cmath":
                found.append((node.lineno, "import cmath"))
            elif node.module == "math":
                found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH]
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "complex"):
                found.append((node.lineno, f"{node.func.id}()"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in FLOAT_MATH:
                found.append((node.lineno, f"math.{node.attr}"))
    return found


def test_the_guard_sees_every_float_construct():
    source = """
import cmath
from math import sqrt
x = 0.5 + 2j + 1e-6
y = float(3) + complex(1, 2)
z = math.sqrt(3) * math.exp(1) * math.pi * math.log(2)
ok = math.inf, math.isqrt(9), 3 / 4
"""
    assert sorted(float_uses(source)) == [
        (2, "import cmath"), (3, "math.sqrt"),
        (4, "literal 0.5"), (4, "literal 1e-06"), (4, "literal 2j"),
        (5, "complex()"), (5, "float()"),
        (6, "math.exp"), (6, "math.log"), (6, "math.pi"), (6, "math.sqrt"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_uses_no_floats(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []
