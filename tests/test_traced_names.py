"""The benchmark tracer's layer functions exist in the package, and a command loads them.

``bench/tracer.py`` looks up every name in its ``TRACED`` table with ``getattr`` on the
module ``sys.modules["odlisim.<layer>"]``, so a function renamed or removed in ``odlisim``,
or a layer that a command leaves unloaded, breaks ``bench/run.py --trace 1``.
This reads the table from the tracer's source, without importing the benchmark.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from conftest import fresh_env

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


def test_one_command_loads_every_traced_layer(tmp_path):
    """The tracer finds each layer in ``sys.modules``, so one ``simulate`` in a fresh
    interpreter loads every traced module, the oracle too, which simulate never calls."""
    code = ("import sys\n"
            "from odlisim.cli import main\n"
            "assert main(['scenario', 'gen', '--out', 'c.json']) == 0\n"
            "assert main(['simulate', '--config', 'c.json', '--policy', 'no-response',\n"
            "             '--out', 'out']) == 0\n"
            "print(' '.join(m for m in sys.argv[1:] if m not in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code,
                          *(f"odlisim.{layer}" for layer in traced_names())],
                         cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1].split() == []
