"""Each name has one home: a ``from`` import of a package module names what that module defines.

A module that imports a name to use it does not also offer it, so
``from .<mod> import name`` and ``from odlisim.<mod> import name`` must name a
``def``, ``class`` or assignment at the top of ``<mod>``, never a name ``<mod>``
itself imports.  This reads the sources with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "odlisim"


def defined_names(module: Path) -> set[str]:
    """The names ``module`` binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def imported_from(source: Path) -> list[tuple[str, str, int]]:
    """(package module, name, line) of each ``from .<mod>`` or ``from odlisim.<mod>`` import."""
    found = []
    for node in ast.walk(ast.parse(source.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1 and source.parent == PACKAGE:
            module = node.module
        elif node.level == 0 and node.module.startswith("odlisim."):
            module = node.module.removeprefix("odlisim.")
        else:
            continue
        found.extend((module, alias.name, node.lineno) for alias in node.names)
    return found


def test_every_imported_name_is_defined_where_it_is_imported_from():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    homes: dict[str, set[str]] = {}
    wrong = []
    for source in sources:
        for module, name, line in imported_from(source):
            if module not in homes:
                homes[module] = defined_names(PACKAGE / f"{module}.py")
            if name not in homes[module]:
                wrong.append(f"{source.relative_to(ROOT)}:{line}: {name} from {module}")
    assert "spec" in homes and "engine" in homes
    assert not wrong, "\n".join(wrong)
