"""Every function the benchmark tracer wraps exists.

perfbench/tracing.py looks up each `module.function` of its TRACED
tuple on the so_lab module of that name on every traced run, so a
function renamed or removed here breaks the benchmark.  The tuple is
read from the source rather than imported, so this runs without the
benchmark harness on the path.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACING}")


def test_every_traced_function_exists():
    names = traced_names()
    assert names
    missing = []
    for name in names:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"so_lab.{module}"), function, None)):
            missing.append(name)
    assert not missing
