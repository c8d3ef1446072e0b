"""Every name a module of nsx imports at top level is used in that module,
every private name (`_x`) a module binds at top level or in a class body,
a method or a class attribute, is used somewhere in the package, and no
module but symexpr calls the Expr constructor.

The package re-exports its API from `__init__.py`, so that file is left
out of the import scan; `from __future__` imports are compiler directives,
not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nsx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nimport numpy as np\nprint(loads, np.pi)\n"
    assert _unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert _unused_imports(path.read_text()) == []


def _private_names(tree):
    """The `_x` names bound by the defs and assignments of the module's top
    level and of its class bodies: its functions, classes, methods and
    module and class attributes."""
    names = set()
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _referenced(tree):
    """Every name the module reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def _unreferenced_private_names(sources):
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = set().union(*map(_referenced, trees.values()))
    return sorted(f"{name}:{n}" for name, tree in trees.items() for n in _private_names(tree) - refs)


def test_the_scan_sees_an_unreferenced_private_name():
    sources = {
        "a.py": "_used, _spare = 1, 2\n_unused = 3\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\nimport a\nprint(a._spare)\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py:_unused"]


def test_the_scan_sees_an_unreferenced_private_method_or_class_attribute():
    sources = {
        "a.py": "class A:\n    _tag = 1\n    _spare: int = 2\n    __slots__ = ()\n"
        "    def _used(self):\n        return self._tag\n    def _unused(self):\n        pass\n",
        "b.py": "from a import A\nprint(A()._used())\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py:_spare", "a.py:_unused"]


def test_every_private_top_level_name_is_referenced():
    assert _unreferenced_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def _expr_constructor_calls(source):
    """The lines that call `Expr(...)`, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Expr" or getattr(node.func, "attr", None) == "Expr")
    ]


def test_the_scan_sees_an_expr_constructor_call():
    source = "from nsx.symexpr import Expr\nimport nsx.symexpr as se\nx: Expr = Expr(())\ny = se.Expr(())\n"
    assert _expr_constructor_calls(source) == [3, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "symexpr.py"], ids=lambda p: p.name)
def test_only_symexpr_calls_the_expr_constructor(path):
    # Expr values must be canonical; only symexpr's constructors and
    # arithmetic build them.
    assert _expr_constructor_calls(path.read_text()) == []
