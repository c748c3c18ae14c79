import numpy as np
import pytest

from helmlayer.model import SourceSpec, split_source
from helmlayer.quadrature import cell_rule, composite_rule, gauss_rule


def test_gauss_rule_basics():
    x, w = gauss_rule(16)
    assert len(x) == 16
    assert np.isclose(w.sum(), 2.0, rtol=1e-14)
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_polynomial_exactness():
    y, w = composite_rule(-0.3, 0.7, (), 0.0, base_panels=2, nodes=8)
    for p in range(12):
        exact = (0.7 ** (p + 1) - (-0.3) ** (p + 1)) / (p + 1)
        assert abs(np.sum(w * y ** p) - exact) < 1e-14


def test_breakpoints_split_kinked_integrand():
    # |y - 0.2| has a kink; splitting there restores spectral accuracy
    exact = ((0.2 + 1.0) ** 2 + (1.0 - 0.2) ** 2) / 2.0
    y, w = composite_rule(-1.0, 1.0, (0.2,), 0.0, base_panels=1, nodes=8)
    assert abs(np.sum(w * np.abs(y - 0.2)) - exact) < 1e-14
    y, w = composite_rule(-1.0, 1.0, (), 0.0, base_panels=1, nodes=8)
    assert abs(np.sum(w * np.abs(y - 0.2)) - exact) > 1e-6


def test_oscillation_refinement_resolves_high_frequency():
    rate = 200.0
    y, w = composite_rule(0.0, 1.0, (), osc_rate=rate, base_panels=1, nodes=16)
    got = np.sum(w * np.exp(1j * rate * y))
    exact = (np.exp(1j * rate) - 1.0) / (1j * rate)
    assert abs(got - exact) < 1e-13
    # without refinement the same node budget fails badly
    coarse_y, coarse_w = composite_rule(0.0, 1.0, (), 0.0, base_panels=1, nodes=16)
    assert abs(np.sum(coarse_w * np.exp(1j * rate * coarse_y)) - exact) > 1e-3


def test_flat_ends_narrow_the_edge_panels_of_a_bump():
    bump = SourceSpec.bump(-0.8, 0.8)
    assert bump.flat_ends == ((-0.8, 0.05), (0.8, 0.05))
    fine_y, fine_w = composite_rule(-0.8, 0.8, (), 0.0, base_panels=256, nodes=16)
    for k in (0.0, 3.0, 10.0, 30.0):
        exact = np.sum(fine_w * bump(fine_y) * np.exp(1j * k * fine_y))
        y, w = composite_rule(-0.8, 0.8, (), 0.0, base_panels=8, nodes=16,
                              flat_ends=bump.flat_ends)
        assert abs(np.sum(w * bump(y) * np.exp(1j * k * y)) - exact) < 1e-15
        # eight uniform panels reach the essential singularity at the edges
        y, w = composite_rule(-0.8, 0.8, (), 0.0, base_panels=8, nodes=16)
        assert abs(np.sum(w * bump(y) * np.exp(1j * k * y)) - exact) > 1e-12
    # one panel more at each end, 1/16 of the half-width wide, nowhere else
    y, _ = composite_rule(-0.8, 0.8, (0.0,), 0.0, base_panels=4, nodes=2,
                          flat_ends=bump.flat_ends)
    assert len(y) == 2 * 10
    assert -0.8 < y[0] < y[1] < -0.75 < y[2]
    assert 0.75 < y[-2] < y[-1] < 0.8 and y[-3] < 0.75
    # a half keeps the flat end it shares with the bump, not the interface
    right = split_source(bump).f1
    assert right.flat_ends == ((0.8, 0.05),)
    assert len(composite_rule(0.0, 0.8, (), 0.0, 4, 2, right.flat_ends)[0]) == 10
    # a panel already narrower than the width is kept as it is
    assert len(composite_rule(-0.8, 0.8, (), 0.0, 40, 2, bump.flat_ends)[0]) == 80


def test_cell_rule_integrates_piecewise_linear_exactly():
    edges = np.array([0.0, 0.25, 0.4, 0.8, 1.0])
    vals = np.array([0.0, 1.0, -0.5, 2.0, 0.0])
    y, w = cell_rule(edges, osc_rate=0.0, nodes=4)
    got = np.sum(w * np.interp(y, edges, vals))
    exact = np.trapezoid(vals, edges)
    assert abs(got - exact) < 1e-14
    with pytest.raises(ValueError):
        cell_rule(np.array([1.0, 0.5]))


def test_composite_rule_validation():
    with pytest.raises(ValueError):
        composite_rule(1.0, 0.0)
    with pytest.raises(ValueError):
        composite_rule(0.0, 1.0, (), 0.0, base_panels=0)
