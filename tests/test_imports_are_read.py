"""Every module-level import of src/moduliq and of tests is read: its name
appears in the module as a loaded name (in any function, annotation or
default), or the module lists it in ``__all__``.  An import inside a
function, ``from __future__`` and ``import *`` are not checked."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "moduliq").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def module_imports(tree):
    """(line, bound name) of every import outside functions and classes."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                found += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # the branches of a module-level if, try or with
            stack += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    return found


def unread_imports(source):
    """(line, name) for every module-level import that is neither read nor exported."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for line, name in module_imports(tree) if name not in read)


def test_the_guard_sees_every_unread_import():
    source = """
from __future__ import annotations
import os, os.path as osp
import collections.abc
from math import gcd, lcm as least, isqrt
from itertools import *
try:
    from fractions import Fraction
except ImportError:
    Fraction = None
if True:
    import json

def f(x: int = isqrt(4)) -> "str":
    import re
    return collections.abc, gcd(x, 2)

class C:
    import sys

__all__ = ["Fraction"]
"""
    assert unread_imports(source) == [(3, "os"), (3, "osp"), (5, "least"), (12, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
