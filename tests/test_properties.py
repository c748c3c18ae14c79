"""Property tests of the layered amplitudes over media, frequencies and
sources drawn by hypothesis."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from helmlayer.forward import boundary_sweep, forward_field
from helmlayer.greens import (eval_from_coeffs, green_coeffs_via_linear_system,
                              green_eval)
from helmlayer.model import FrequencyGrid, Medium, SourceSpec

speeds = st.floats(0.5, 2.0)
omegas = st.floats(0.1, 20.0)
amplitudes = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                                allow_nan=False, allow_infinity=False)
media = st.builds(Medium, speeds, speeds)


@st.composite
def sources(draw):
    # a support end within rounding of the interface puts quadrature
    # nodes on it, which green_eval (and so forward_field) rejects
    a = draw(st.floats(-0.9, 0.7).filter(lambda t: abs(t) > 1e-3))
    b = min(a + draw(st.floats(0.1, 0.5)), 0.95)
    assume(abs(b) > 1e-3)
    amp = draw(amplitudes)
    kind = draw(st.sampled_from(["bump", "bspline", "modulated_bump"]))
    if kind == "bump":
        return SourceSpec.bump(a, b, amp)
    if kind == "bspline":
        return SourceSpec.bspline(a, b, draw(st.integers(1, 3)), amp)
    return SourceSpec.modulated_bump(a, b, draw(st.floats(0.0, 10.0)), amp)


source_points = st.floats(-0.95, 0.95).filter(lambda y: abs(y) > 1e-3)


@settings(max_examples=200, deadline=None)
@given(media, omegas, source_points, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_green_eval_matches_linear_system(medium, omega, y, xs):
    xs = np.array(xs)
    ref = eval_from_coeffs(green_coeffs_via_linear_system(y, medium, omega), xs, y,
                           medium, omega)
    assert np.max(np.abs(green_eval(xs, y, medium, omega) - ref)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(media, sources(), st.floats(0.5, 20.0))
def test_boundary_sweep_matches_forward_field(medium, f, K):
    grid = FrequencyGrid.uniform(K, 4)
    data = boundary_sweep(f, medium, grid)
    ref = np.array([[forward_field(f, medium, om, x) for om in grid.omegas]
                    for x in (-1.0, 1.0)])
    got = np.array([data.u_minus, data.u_plus])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=25, deadline=None)
@given(media, st.floats(0.5, 20.0), amplitudes, amplitudes,
       st.integers(0, 2**32 - 1))
def test_boundary_sweep_is_linear(medium, K, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-0.9, 0.9, 12))
    v, w = rng.standard_normal((2, 12)) + 1j * rng.standard_normal((2, 12))
    grid = FrequencyGrid.uniform(K, 6)

    def sweep(vals):
        d = boundary_sweep(SourceSpec.from_grid(x, vals), medium, grid)
        return np.concatenate([d.u_minus, d.u_plus])

    lhs = sweep(alpha * v + beta * w)
    rhs = alpha * sweep(v) + beta * sweep(w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))
