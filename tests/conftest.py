import json
import os
from pathlib import Path

import numpy as np
import pytest

import cubedim
from cubedim import GeneratorSpec, MetricDescriptor, MetricSpace, generate
from cubedim.cubes import build_adjacent_family, build_system
from cubedim.nets import NetParams


@pytest.fixture(scope="session")
def cubedim_env():
    """Environment for ``python -m cubedim`` child processes.

    The directory holding the imported ``cubedim`` package is prepended to
    ``PYTHONPATH``, so children run the same code as the test process from
    any working directory, whether or not the package is installed.
    """
    src = str(Path(cubedim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_cubes_doc(path, doc):
    """Write a parsed cubes document back in the compact form the reader
    takes, so that a tampered file reaches the check it targets rather than
    the reader's grammar check."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def random_graph_matrix(n, seed):
    """Shortest-path distances of a random connected graph on n vertices.

    Edge weights are powers of two from 1 down to 2**-23, so every path
    length is exact and the matrix is symmetric bit for bit.
    """
    from scipy.sparse.csgraph import shortest_path

    rng = np.random.default_rng(seed)
    edges = np.triu(rng.random((n, n)) < 4.0 / n, 1)
    parent = [rng.integers(i) for i in range(1, n)]  # a random spanning tree
    edges[parent, np.arange(1, n)] = True
    weights = np.zeros((n, n))
    weights[edges] = 2.0 ** -rng.integers(0, 24, size=int(edges.sum()))
    return shortest_path(weights + weights.T, directed=False)


@pytest.fixture(scope="session")
def graph40():
    """A 40-point matrix space: shortest paths of a random graph."""
    return MetricSpace(MetricDescriptor("matrix"), matrix=random_graph_matrix(40, 1))


@pytest.fixture(scope="session")
def params():
    return NetParams()


@pytest.fixture(scope="session")
def grid257():
    return MetricSpace(MetricDescriptor("euclidean"), coords=np.arange(257) / 256.0)


@pytest.fixture(scope="session")
def ultra4():
    return generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=1 / 16, depth=4))


@pytest.fixture(scope="session")
def ultra6():
    return generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=1 / 16, depth=6))


@pytest.fixture(scope="session")
def cantor10():
    return generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=10))


@pytest.fixture(scope="session")
def ultra6_system(ultra6, params):
    return build_system(ultra6, params, seed=0)


@pytest.fixture(scope="session")
def ultra6_family(ultra6, params):
    return build_adjacent_family(ultra6, params, K_max=4, query_budget=200,
                                 target_ratio=64.0, seed=5)


@pytest.fixture(scope="session")
def cantor10_family(cantor10, params):
    return build_adjacent_family(cantor10, params, K_max=4, query_budget=200,
                                 target_ratio=64.0, seed=5)
