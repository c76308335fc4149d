"""The benchmark tracer's layer functions exist in the package.

``bench/tracer.py`` looks up every name in its ``TRACED`` table with ``getattr``,
so a function renamed or removed in ``odlisim`` breaks ``bench/run.py --trace 1``.
This reads the table from the tracer's source, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves_in_its_module():
    traced = traced_names()
    assert "reach" in traced and "compute_drivable_area" in traced["reach"]
    missing = [f"odlisim.{layer}.{name}" for layer, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"odlisim.{layer}"), name, None))]
    assert not missing
