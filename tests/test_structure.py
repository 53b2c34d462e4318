"""No module of the package reaches into another module's private names.

A name that starts with an underscore belongs to its module. Every module
of ``src/cubedim`` is parsed with ``ast``, and a ``from`` import of such a
name from another module of the package fails the test, as does reading
one as an attribute of an imported package module. Tests may import
private names.
"""

import ast
from pathlib import Path

import cubedim

SRC = Path(cubedim.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_uses(path):
    """(line, name) of each private name that ``path`` takes from a sibling."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = set()  # names bound to package modules by `from . import x`
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "cubedim"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"{node.module or '.'}.{alias.name}"))
                if not node.module or node.module == "cubedim":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_modules_import_no_private_name_of_another():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, name in private_uses(path)]
    assert offenders == []


def test_the_check_sees_a_private_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from .cubes import (AdjacentFamily,\n    _effective_radius)\n"
                      "from . import cubes\nR = cubes._smallest_containing_cube\n"
                      "from numpy import _NoValue\n")
    assert private_uses(source) == [(1, "cubes._effective_radius"),
                                    (4, "cubes._smallest_containing_cube")]
