"""No module of the package reaches into another module's private names,
none imports SciPy, no module-level constant goes unread, and no function,
method or class goes unnamed.

A name that starts with an underscore belongs to its module. Every module
of ``src/cubedim`` is parsed with ``ast``, and a ``from`` import of such a
name from another module of the package fails the test, as does reading
one as an attribute of an imported package module. Tests may import
private names. The package needs only NumPy: an import of ``scipy`` or of
one of its modules, anywhere in a module, fails the test; the tests' own
oracles may use SciPy. A module-level constant of the package (an
uppercase name, with or without a leading underscore) must be read
somewhere in the package, its tests or ``perfbench``, outside its own
assignment. No module but ``metric.py`` names an index class in an
``isinstance`` or ``issubclass`` call: callers ask an index for what it
can do (``hasattr``), never which kind it is, and each such ``hasattr``
names, as a string, a method that an index class of ``metric.py`` defines,
so that renaming the method cannot quietly turn every caller away from its
path. Every function, method and
class defined in the package must be named somewhere in the package outside
its own definition, by a bare name, an attribute or an import; the
package's public names (``cubedim.__all__``) and the functions that
``perfbench``'s tracer wraps (its ``TRACED``) are exempt, and so are the
dunder methods that Python itself calls. No method of ``MetricSpace`` but
``__init__`` sets an attribute of the space: the one thing a space keeps is
its ``index``, which ``cached_property`` sets, and the index keeps the
whole space's diameter and least gap.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import cubedim

SRC = Path(cubedim.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
INDEX_CLASSES = {"_Index", "_SortedIndex", "LineIndex", "CoordIndex", "PrefixIndex",
                 "MatrixIndex"}


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


def scipy_imports(path):
    """(line, module) of each import of SciPy or of one of its modules in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, node.module))
    return sorted(found)


def test_no_module_imports_scipy():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, name in scipy_imports(path)]
    assert offenders == []


def test_the_check_sees_a_scipy_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy\ndef f():\n    from scipy.spatial import cKDTree\n"
                      "import scipy.sparse as sp, os\nfrom .scipy import x\n")
    assert scipy_imports(source) == [(3, "scipy.spatial"), (4, "scipy.sparse")]


def constants(path):
    """The module-level constants that ``path`` assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets
                      if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    return found


def names_read(path):
    """Every name that ``path`` reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_every_constant_is_read():
    read = set().union(*(names_read(path)
                         for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
                         for path in folder.rglob("*.py")))
    unread = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
              for name in constants(path) if name not in read]
    assert unread == []


def test_the_check_sees_an_unread_constant(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\nPROBE = 4\n_LIMIT: int = 8\nlower = 1\n"
                      "def f():\n    INNER = 2\n    return np.ones(_LIMIT)\n")
    assert constants(source) == ["PROBE", "_LIMIT"]
    assert {"np", "ones", "_LIMIT"} <= names_read(source)
    assert not {"PROBE", "INNER", "lower"} & names_read(source)


def kind_tests(path):
    """(line, class) of each index class named in an ``isinstance`` or
    ``issubclass`` call in ``path``, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")):
            for arg in node.args[1:]:
                for name in ast.walk(arg):
                    named = (name.id if isinstance(name, ast.Name) else
                             name.attr if isinstance(name, ast.Attribute) else None)
                    if named in INDEX_CLASSES:
                        found.append((node.lineno, named))
    return found


def test_no_caller_tests_the_metric_kind():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "metric.py"
                 for line, name in kind_tests(path)]
    assert offenders == []


def test_the_check_sees_a_kind_test(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from .metric import PrefixIndex\nfrom . import metric\n"
                      "a = isinstance(space.index, PrefixIndex)\n"
                      "b = isinstance(i, (int, metric.LineIndex))\n"
                      "c = issubclass(type(i), metric._SortedIndex)\n"
                      "d = isinstance(i, dict) or hasattr(i, 'ball_run')\n")
    assert kind_tests(source) == [(3, "PrefixIndex"), (4, "LineIndex"), (5, "_SortedIndex")]


def capability_names(path):
    """(line, name) of each ``hasattr`` call in ``path``, the name None where it
    is not a string literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "hasattr"):
            name = node.args[1] if len(node.args) == 2 else None
            found.append((node.lineno, name.value if isinstance(name, ast.Constant)
                          and isinstance(name.value, str) else None))
    return sorted(found)


def index_methods(path):
    """The names of the methods that the index classes of ``path`` define."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {item.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in INDEX_CLASSES
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_every_capability_asked_is_an_index_method():
    methods = index_methods(SRC / "metric.py")
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, name in capability_names(path) if name not in methods]
    assert offenders == []


def test_the_check_sees_an_unknown_capability(tmp_path):
    index = tmp_path / "metric.py"
    index.write_text("class LineIndex:\n    def ball_run(self):\n        pass\n"
                     "class Shape:\n    def cover_sets(self):\n        pass\n")
    source = tmp_path / "probe.py"
    source.write_text("a = hasattr(i, 'ball_run')\nb = hasattr(i, 'ball_runs')\n"
                      "c = hasattr(i, 'cover_sets')\nd = hasattr(i, name)\n")
    assert index_methods(index) == {"ball_run"}
    assert capability_names(source) == [(1, "ball_run"), (2, "ball_runs"),
                                        (3, "cover_sets"), (4, None)]


def names_used(tree):
    """How often each name is used in ``tree``: a bare name, an attribute or an
    imported name (or its alias)."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                used[alias.name.split(".")[-1]] += 1
                if alias.asname:
                    used[alias.asname] += 1
    return used


def unnamed(paths, exempt=frozenset()):
    """(file, line, name) of each function, method or class in ``paths`` that no
    code of ``paths`` names outside its own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, DEFINITIONS) and node.name not in exempt
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and used[node.name] <= names_used(node)[node.name]):
                found.append((path.name, node.lineno, node.name))
    return sorted(found)


def traced_names():
    """The last part of each attribute path that ``perfbench/tracer.py`` wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return {entry[2].split(".")[-1] for entry in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py assigns no TRACED")


def test_every_definition_is_named():
    assert unnamed(sorted(SRC.glob("*.py")), set(cubedim.__all__) | traced_names()) == []


def test_the_check_sees_an_unnamed_definition(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\nfrom .cubes import used as alias\n"
                      "def dead(n):\n    return dead(n - 1) if n else np.zeros(1)\n"
                      "def called():\n    return 1\nclass Shape:\n"
                      "    def __init__(self):\n        self.area = called()\n"
                      "    def unread(self):\n        return Shape()\n"
                      "    def read(self):\n        return self.read\n"
                      "value = Shape().area + alias\n")
    assert unnamed([source]) == [("probe.py", 3, "dead"), ("probe.py", 10, "unread"),
                                 ("probe.py", 12, "read")]
    assert unnamed([source], {"dead", "unread"}) == [("probe.py", 12, "read")]


def self_stores(path, cls):
    """(line, method, attribute) of each attribute of the instance that a method
    of class ``cls`` in ``path``, other than ``__init__``, assigns or deletes,
    directly, by ``setattr`` or ``delattr``, or through ``__dict__``; the
    attribute is None where it is not a string literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for method in node.body:
            if (not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or method.name == "__init__" or not method.args.args):
                continue
            me = method.args.args[0].arg

            def mine(expr):
                return isinstance(expr, ast.Name) and expr.id == me

            for sub in ast.walk(method):
                stored = isinstance(getattr(sub, "ctx", None), (ast.Store, ast.Del))
                if stored and isinstance(sub, ast.Attribute) and mine(sub.value):
                    found.append((sub.lineno, method.name, sub.attr))
                elif (stored and isinstance(sub, ast.Subscript)
                      and isinstance(sub.value, ast.Attribute) and mine(sub.value.value)
                      and sub.value.attr == "__dict__"):
                    key = sub.slice
                    found.append((sub.lineno, method.name,
                                  key.value if isinstance(key, ast.Constant) else None))
                elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                      and sub.func.id in ("setattr", "delattr") and len(sub.args) > 1
                      and mine(sub.args[0])):
                    key = sub.args[1]
                    found.append((sub.lineno, method.name,
                                  key.value if isinstance(key, ast.Constant) else None))
    return sorted(found, key=lambda entry: entry[0])


def test_the_space_keeps_nothing_but_its_index():
    assert self_stores(SRC / "metric.py", "MetricSpace") == []


def test_the_check_sees_an_attribute_set_on_the_space(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("class MetricSpace:\n    def __init__(self):\n        self.n = 1\n"
                      "    def diameter(self, subset=None):\n        self._diam = 2\n"
                      "    def gap(this):\n        this.a, this.b = 1, 2\n"
                      "        setattr(this, 'c', 3)\n        this.__dict__['d'] = 4\n"
                      "        del this.e\n        clone = this\n        clone.f = 5\n"
                      "        return this.g\n"
                      "class Other:\n    def f(self):\n        self.x = 1\n")
    assert self_stores(source, "MetricSpace") == [
        (5, "diameter", "_diam"), (7, "gap", "a"), (7, "gap", "b"), (8, "gap", "c"),
        (9, "gap", "d"), (10, "gap", "e")]
