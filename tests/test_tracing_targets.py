"""The benchmark's tracer wraps package functions by name; a rename or a
deletion in the package must show here, not only as a broken traced run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing_targets():
    """TARGETS of perfbench/tracing.py, read from its source, not imported."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in perfbench/tracing.py")


def test_every_traced_name_resolves():
    targets = tracing_targets()
    assert targets
    missing = []
    for module, attribute, _label in targets:
        obj = importlib.import_module(f"hilbcalc.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert missing == []
