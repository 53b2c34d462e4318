"""The benchmark's tracer must still find every function it wraps.

``perfbench/tracer.py`` patches package functions by module and attribute
name, so renaming or deleting one of them breaks ``perfbench/run.py --trace
1`` and ``perfbench/selftest.py``. Entering and leaving the tracer here makes
such a refactor fail in the test suite as well.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracer

    return tracer


def test_every_traced_site_resolves_and_is_restored(tracer_module):
    import cubedim.cubes

    original = cubedim.cubes.CubeSystem.cubes_at
    with tracer_module.Tracer() as tr:
        assert cubedim.cubes.CubeSystem.cubes_at is not original
    assert len(tr.sites) >= len(tracer_module.TRACED)
    assert cubedim.cubes.CubeSystem.cubes_at is original
