import numpy as np
import pytest

from helmlayer.model import (FrequencyGrid, HalfSource, Medium, SourceSpec, l2_norm_sq,
                             split_source, wavenumbers)
from helmlayer.quadrature import composite_rule


def test_wavenumbers_examples():
    assert wavenumbers(Medium(1.0, 2.0), 3.0) == (3.0, 6.0)
    assert wavenumbers(Medium(1.0, 1.0), 0.0) == (0.0, 0.0)
    assert wavenumbers(Medium(0.5, 1.5), 2.0) == (1.0, 3.0)


def test_wavenumbers_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        med = Medium(rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
        om, lam = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
        k1a, k2a = wavenumbers(med, lam * om)
        k1b, k2b = wavenumbers(med, om)
        assert np.isclose(k1a, lam * k1b, rtol=5e-16, atol=0.0)
        assert np.isclose(k2a, lam * k2b, rtol=5e-16, atol=0.0)


def test_medium_validation():
    with pytest.raises(ValueError):
        Medium(-1.0, 1.0)
    with pytest.raises(ValueError):
        Medium(1.0, 0.0)
    assert Medium(1.0, 2.5).c_max == 2.5
    with pytest.raises(ValueError):
        wavenumbers(Medium(1.0, 1.0), -0.1)


def test_frequency_grid_validation():
    grid = FrequencyGrid.uniform(40.0, 400)
    assert len(grid) == 400
    assert grid.omegas[0] == pytest.approx(0.1)
    assert grid.omegas[-1] == 40.0
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([]), 1.0)
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([1.0, 0.5]), 1.0)
    with pytest.raises(ValueError):
        FrequencyGrid(np.array([0.5, 2.0]), 1.0)
    with pytest.raises(ValueError, match="n_omega must be at least 1"):
        FrequencyGrid.uniform(40.0, 0)
    with pytest.raises(ValueError, match="omega_floor must lie in"):
        FrequencyGrid.uniform(40.0, 400, omega_floor=50.0)


def test_bump_peak_and_support():
    f = SourceSpec.bump(-0.5, 0.5, amplitude=2.0 - 1.0j)
    assert f(0.9) == 0.0
    assert f(0.0) == pytest.approx(2.0 - 1.0j)
    # the peak value sits at the support midpoint
    x = np.linspace(-0.5, 0.5, 1001)
    assert np.max(np.abs(f(x))) == pytest.approx(abs(2.0 - 1.0j))


def test_eval_outside_support_is_exactly_zero():
    rng = np.random.default_rng(2)
    specs = [
        SourceSpec.bump(-0.4, 0.3),
        SourceSpec.bspline(0.1, 0.6, 3),
        SourceSpec.modulated_bump(-0.7, -0.2, 5.0),
        SourceSpec.from_grid(np.linspace(-0.3, 0.4, 51),
                             rng.standard_normal(51) + 1j * rng.standard_normal(51)),
    ]
    for spec in specs:
        count = 0
        while count < 500:
            x = rng.uniform(-0.999, 0.999)
            if spec.a <= x <= spec.b:
                continue
            assert spec(x) == 0.0
            count += 1


def test_grid_source_node_identity():
    x = np.linspace(-0.6, 0.6, 41)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    spec = SourceSpec.from_grid(x, vals)
    out = spec(x)
    assert np.allclose(out, vals, rtol=0.0, atol=0.0)


def test_source_validation():
    with pytest.raises(ValueError):
        SourceSpec.bump(-1.0, 0.5)
    with pytest.raises(ValueError):
        SourceSpec.bump(0.5, 0.4)
    with pytest.raises(ValueError):
        SourceSpec.bspline(0.0, 0.5, 0)
    with pytest.raises(ValueError):
        SourceSpec("whatever", -0.5, 0.5)
    x = np.linspace(-0.5, 0.5, 5)
    with pytest.raises(ValueError, match="requires x_grid and samples"):
        SourceSpec("grid", -0.5, 0.5, x_grid=x)
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        SourceSpec.from_grid(x, np.zeros(4))
    with pytest.raises(ValueError, match="strictly increasing"):
        SourceSpec.from_grid(x[[0, 2, 1, 3, 4]], np.zeros(5))
    with pytest.raises(ValueError, match="side must be"):
        HalfSource(SourceSpec.bump(-0.5, 0.5), "up")


def test_split_one_sided():
    f = SourceSpec.bump(0.2, 0.8)
    pair = split_source(f)
    x = np.linspace(-0.99, 0.99, 401)
    assert np.allclose(pair.f1(x), f(x))
    assert np.all(pair.f2(x) == 0.0)
    g = SourceSpec.bump(-0.8, -0.2)
    pair = split_source(g)
    assert np.all(pair.f1(x) == 0.0)
    assert np.allclose(pair.f2(x), g(x))
    # the empty side has no breakpoints and no flat ends
    assert pair.f1.support is None
    assert pair.f1.breakpoints == () and pair.f1.flat_ends == ()


def test_split_is_partition():
    f = SourceSpec.modulated_bump(-0.6, 0.7, 4.0, amplitude=1.5j)
    pair = split_source(f)
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.99, 0.99, 500)
    x = x[x != 0.0]
    v1, v2 = pair.f1(x), pair.f2(x)
    assert np.all((v1 == 0.0) | (v2 == 0.0))
    assert np.allclose(v1 + v2, f(x), rtol=0.0, atol=0.0)


def test_split_norm_additivity():
    # oracle: Gauss-Legendre quadrature of both sides of the partition
    f = SourceSpec.bump(-0.6, 0.7, amplitude=1.0 + 0.5j)
    pair = split_source(f)
    y, w = composite_rule(-0.6, 0.7, (0.0,), 0.0, base_panels=16, nodes=16)
    whole = np.sum(w * np.abs(f(y)) ** 2)
    split = l2_norm_sq(pair.f1) + l2_norm_sq(pair.f2)
    assert abs(whole - split) < 1e-12
