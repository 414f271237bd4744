"""Every method and every private module-level function of src/moduliq is
called by the library: its name is read in src outside its own definition,
as an attribute (``x.name``) for a method, or as a name or an attribute for
a function.  A helper only the tests call belongs in a test oracle.

Dunder methods, which Python calls itself, are not checked, nor are public
module-level functions, which are the library's API.  The scan matches
names, not classes, so two methods of one name count as one."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "moduliq"

# name -> why it stays although src does not call it
ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
    "QSeries.leading": "the (exponent, coefficient) of a series, read by the tests",
    "CycNum.norm": "the norm of Q(w) of the scalar API, read by the tests",
}


def helpers(tree):
    """(qualified name, def node) of every method and private module-level
    function of one module."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{sub.name}", sub)
                for sub in node.body
                if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__"))
            ]
    return found


def reads(node):
    """How often each name is read under node: ("attr", x) counts x.attr and
    ("name", x) a bare x."""
    return Counter(
        ("attr", n.attr) if isinstance(n, ast.Attribute) else ("name", n.id)
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name))
    )


def uncalled(sources):
    """Qualified names, sorted, of the helpers of the module sources that no
    code outside their own body reads: one count over every tree, less the
    reads inside each helper."""
    trees = [ast.parse(source) for source in sources]
    total = Counter()
    for tree in trees:
        total.update(reads(tree))
    out = []
    for tree in trees:
        for qualname, node in helpers(tree):
            inside = reads(node)
            keys = [("attr", node.name)] if "." in qualname else [("attr", node.name), ("name", node.name)]
            if all(total[key] == inside[key] for key in keys):
                out.append(qualname)
    return sorted(out)


def test_the_scan_sees_every_uncalled_helper():
    sources = [
        """
def _used(x):
    return x

def _recursive(n):
    return _recursive(n - 1) if n else 0

def public():
    return _used(1)

class C:
    def __eq__(self, other):
        return self.kept() is other

    def kept(self):
        return 1

    def dead(self):
        return self.dead

    @property
    def shown(self):
        return 0
""",
        """
from a import C, _used

def other():
    return C().shown, _used
""",
    ]
    assert uncalled(sources) == ["C.dead", "_recursive"]


def test_every_src_helper_is_called_in_src():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert uncalled(sources) == sorted(ALLOWED)

