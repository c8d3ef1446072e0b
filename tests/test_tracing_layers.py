"""The benchmark's tracer (`perfbench/tracing.py`) wraps engine functions
named in its LAYERS table, and its `install` stops at a name that does not
resolve, so a renamed engine function would break a traced benchmark run.
Every entry must name a function of the engine.

LAYERS is read from the source, so nothing of the benchmark is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    tree = ast.parse(TRACING.read_text())
    (node,) = [
        n
        for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in n.targets)
    ]
    return ast.literal_eval(node.value)


LAYERS = _layers()


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for _, m, a in LAYERS], ids=[f"{m}:{a}" for _, m, a in LAYERS]
)
def test_traced_layer_names_an_engine_function(module_name, attr):
    owner = importlib.import_module(module_name)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        # `install` wraps a method found in its own class's __dict__.
        assert callable(vars(getattr(owner, cls_name))[name])
    else:
        assert callable(getattr(owner, name))
