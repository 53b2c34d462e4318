import numpy as np
import pytest

from cubedim import GeneratorSpec, InvalidArgumentError, SizeCapError, generate, snowflake_wrap


def test_cantor_depth2_exact():
    sp = generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=2))
    got = sorted(float(c) for c in sp.coords[:, 0])
    assert got == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9])


def test_cantor_count():
    sp = generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=10))
    assert sp.n == 2 ** 10


def test_sequence_example():
    sp = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=4))
    got = sorted(float(c) for c in sp.coords[:, 0])
    assert got == pytest.approx([0.0, 0.25, 1 / 3, 0.5, 1.0])


def test_sequence_count():
    sp = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=500))
    assert sp.n == 501


def test_grid_counts():
    assert generate(GeneratorSpec(kind="grid", ambient_dim=1, resolution=1 / 16)).n == 17
    assert generate(GeneratorSpec(kind="grid", ambient_dim=2, resolution=1 / 8)).n == 81


def test_ultrametric_counts_and_distances():
    sp = generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=1 / 16, depth=3))
    assert sp.n == 8
    dists = {round(sp.distance(i, j), 10) for i in range(8) for j in range(i + 1, 8)}
    assert dists == {1.0, 1 / 16, 1 / 256}


@pytest.mark.parametrize("arity", [0, 1, 37, 100])
def test_arity_outside_the_base_36_digits_rejected(arity):
    # 37 would write strings over the 36 digits and label the space arity 37
    with pytest.raises(InvalidArgumentError, match="arity"):
        GeneratorSpec(kind="ultrametric_cantor", arity=arity, depth=2)


def test_arity_36_takes_every_digit():
    space = generate(GeneratorSpec(kind="ultrametric_cantor", arity=36, depth=2))
    assert space.n == 36 ** 2 and space.descriptor.arity == 36
    assert len(set("".join(space.strings))) == 36


def test_ifs_orbit_matches_cantor():
    maps = ((1 / 3, 0.0), (1 / 3, 2 / 3))
    sp = generate(GeneratorSpec(kind="ifs", maps=maps, depth=5))
    cantor = generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=5))
    assert sp.n == cantor.n
    assert np.allclose(np.sort(sp.coords[:, 0]), np.sort(cantor.coords[:, 0]))


def test_determinism():
    spec = GeneratorSpec(kind="cantor", ratio=0.4, depth=9)
    a = generate(spec).coords
    b = generate(spec).coords
    assert np.array_equal(a, b)


def test_size_cap():
    with pytest.raises(SizeCapError):
        generate(GeneratorSpec(kind="ultrametric_cantor", arity=2, base=0.5, depth=21))


def test_snowflake_wrap_identity():
    sp = generate(GeneratorSpec(kind="cantor", ratio=1 / 3, depth=4))
    assert snowflake_wrap(sp, 1.0).distance(0, 3) == sp.distance(0, 3)


def test_snowflake_wrap_power():
    sp = generate(GeneratorSpec(kind="sequence", p=1.0, n_max=20))
    snow = snowflake_wrap(sp, 0.5)
    assert snow.distance(0, 5) == pytest.approx(sp.distance(0, 5) ** 0.5)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="cantor", ratio=1 / 3, depth=8),
    GeneratorSpec(kind="sequence", p=1.0, n_max=400),
    GeneratorSpec(kind="grid", ambient_dim=1, resolution=1 / 128),
    GeneratorSpec(kind="grid", ambient_dim=2, resolution=1 / 16),
    GeneratorSpec(kind="ultrametric_cantor", arity=2, base=1 / 16, depth=6),
])
def test_generated_spaces_are_doubling(spec):
    sp = generate(spec)
    est = sp.estimate_doubling(sample_count=24, rng_seed=2)
    assert est.C_d_hat <= 64
