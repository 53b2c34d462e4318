"""The benchmark must still find every package name it uses.

``perfbench/tracer.py`` patches package functions by module and attribute
name, so renaming or deleting one of them breaks ``perfbench/run.py --trace
1`` and ``perfbench/selftest.py``. The self-test also reads, by module and
name, the sites where a traced function is imported into another module
(``NAMED_SITES``), so dropping such an import breaks it too; every site must
resolve once the CLI is imported. ``perfbench/pipeline.py`` records fields
of the package, such as ``kernels.BACKEND``, with every result, so dropping
one crashes every benchmark process. Entering and leaving the tracer, and
reading those fields, here makes such a refactor fail in the test suite as
well.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in (name, "workloads"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    return importlib.import_module(name)


@pytest.fixture
def tracer_module(monkeypatch):
    return _import_perfbench(monkeypatch, "tracer")


def test_every_traced_site_resolves_and_is_restored(tracer_module):
    import cubedim.cubes

    original = cubedim.cubes.CubeSystem.cubes_at
    with tracer_module.Tracer() as tr:
        assert cubedim.cubes.CubeSystem.cubes_at is not original
    assert len(tr.sites) >= len(tracer_module.TRACED)
    assert cubedim.cubes.CubeSystem.cubes_at is original


def test_benchmark_environment_fields_resolve(monkeypatch):
    import cubedim

    env = _import_perfbench(monkeypatch, "pipeline").environment(cubedim)
    assert env["backend"] == cubedim.kernels.BACKEND


def test_every_named_site_of_the_self_test_resolves(monkeypatch):
    import cubedim.cli  # noqa: F401  (imports every module a site names)

    selftest = _import_perfbench(monkeypatch, "selftest")
    missing = [(module, name) for module, name in selftest.NAMED_SITES
               if not hasattr(sys.modules[module], name)]
    assert missing == []
