"""Property tests of the layered amplitudes, the half-line transforms,
the batched field and amplitude-bound routes, the noise model, the
discrepancy rule, the operator factored without U against gesdd,
the sweep's block solves against per-cell solves, the B-spline source,
the B-splines' exact transforms against the quadrature route, and the
config and data-file round trips, over media, frequencies,
sources, noise levels and seeds drawn by hypothesis."""

import contextlib
import dataclasses
import io
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helmlayer import cli
from helmlayer.cli import (METHODS, RECON_HEADER, ConfigError, ExperimentRecord, RunConfig,
                           build_source, parse_config_text, read_sweep_csv,
                           serialize_config, write_sweep_csv)
from helmlayer.forward import (CSV_HEADER, BoundaryData, _endpoint_map, _read_csv,
                               boundary_sweep, check_radiation_many, forward_field,
                               forward_field_dx, interface_traces_many, read_boundary_csv,
                               source_rule, write_boundary_csv)
from helmlayer.fourier import (_endpoint_amplitudes, _phase_spread, data_energy, endpoint_amplitude_bound_many,
                               endpoint_data, epsilon_norm, halfline_ft_many,
                               trapezoid_weights, write_ratio_csv, write_tail_csv)
from helmlayer.greens import (_endpoint_rows, eval_from_coeffs,
                              green_coeffs_via_linear_system, green_dx,
                              green_eval, interface_residuals)
from helmlayer.inverse import (ConditioningWarning, ForwardOperator, _exact_operator, _phi,
                               _filtered_solve, _spline_columns, _tikhonov_residuals, add_noise,
                               assemble_operator, morozov_lambda, reconstruct_tikhonov,
                               recon_error)
from helmlayer.model import (FrequencyGrid, Medium, SourceSpec, _bspline_basis,
                             _weighted_values, l2_norm_sq, split_source)
from helmlayer.quadrature import composite_rule

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


@settings(max_examples=200, deadline=None)
@given(speeds, speeds, omegas, source_points, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_mirror_image_matches_bit_for_bit(c1, c2, omega, y, xs):
    # a source at y in (c1, c2) is the mirror image of one at -y in the
    # swapped medium (c2, c1), x flipped: the kernel, its derivative (d/dx
    # flips sign), the linear-system amplitudes and the interface
    # residuals come out as the same doubles
    medium, swapped = Medium(c1, c2), Medium(c2, c1)
    xs = np.array(xs)
    assert np.array_equal(green_eval(xs, y, medium, omega), green_eval(-xs, -y, swapped, omega))
    assert np.array_equal(green_dx(xs, y, medium, omega), -green_dx(-xs, -y, swapped, omega))
    assert (green_coeffs_via_linear_system(y, medium, omega)
            == green_coeffs_via_linear_system(-y, swapped, omega))
    assert interface_residuals(y, medium, omega) == interface_residuals(-y, swapped, omega)


@st.composite
def point_pairs(draw):
    # (x, y) both left of the interface, both right of it, or across it
    side = st.floats(1e-3, 0.99)
    sx, sy = draw(st.sampled_from([(-1, -1), (1, 1), (-1, 1), (1, -1)]))
    return sx * draw(side), sy * draw(side)


@settings(max_examples=200, deadline=None)
@given(st.builds(Medium, st.floats(0.3, 3.0), st.floats(0.3, 3.0)), st.floats(0.1, 50.0),
       st.lists(point_pairs(), min_size=1, max_size=8))
def test_green_function_is_reciprocal(medium, omega, pairs):
    x, y = np.array(pairs).T
    g_xy, g_yx = green_eval(x, y, medium, omega), green_eval(y, x, medium, omega)
    assert np.all(np.abs(g_xy - g_yx) <= 1e-12 * np.abs(g_xy))


@settings(max_examples=25, deadline=None)
@given(media, sources(), st.floats(0.5, 20.0))
# a narrow bump whose eight uniform panels left both rules 1e-10 off at
# its edges, the sweep's (nine panels, resolved at K) and the
# pointwise one's (eight) by different amounts
@example(Medium(1.0, 2.0), SourceSpec.bump(0.5, 0.95), 18.0)
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


@st.composite
def straddling_sources(draw):
    a, b = draw(st.floats(-0.9, -0.05)), draw(st.floats(0.05, 0.9))
    amp = draw(amplitudes)
    kind = draw(st.sampled_from(["bump", "bspline", "modulated_bump",
                                 "uniform_grid", "grid"]))
    if kind == "bump":
        return SourceSpec.bump(a, b, amp)
    if kind == "bspline":
        return SourceSpec.bspline(a, b, draw(st.integers(1, 4)), amp)
    if kind == "modulated_bump":
        return SourceSpec.modulated_bump(a, b, draw(st.floats(0.0, 30.0)), amp)
    n = draw(st.integers(3, 24))
    if kind == "uniform_grid":
        x = np.linspace(a, b, n)
    else:
        inner = draw(st.lists(st.floats(a, b), min_size=n - 2, max_size=n - 2))
        x = np.unique(np.concatenate([[a, b], inner]))
        assume(len(x) >= 3 and np.min(np.diff(x)) > 1e-9)
    samples = draw(st.lists(amplitudes, min_size=len(x), max_size=len(x)))
    return SourceSpec.from_grid(x, samples)


transform_args = st.builds(
    lambda lo, hi, im, n: np.linspace(lo, hi, n) + 1j * im,
    st.floats(-500.0, 500.0), st.floats(-500.0, 500.0),
    st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), st.integers(1, 256))


@settings(max_examples=120, deadline=None)
@given(straddling_sources(), st.sampled_from(["right", "left"]),
       st.sampled_from([4, 8, 16]), transform_args, st.booleans())
def test_halfline_sum_matches_dense_sum(f, side, nodes, xis, paired):
    # the panel-factored sum against the node-by-node sum over the same
    # rule, with one weight column or, paired, the two fw and conj(fw)
    pair = split_source(f)
    src = pair.f1 if side == "right" else pair.f2
    y, w = source_rule(src, float(np.max(np.abs(xis.real))), nodes=nodes)
    phases = np.exp(-1j * np.outer(xis, y))
    fw = w * src(y)
    if paired:
        fw = np.stack([fw, np.conj(fw)], axis=-1)
    got = halfline_ft_many(pair, side, xis, nodes=nodes, paired=paired)
    assert got.shape == phases.shape[:1] + fw.shape[1:]
    # sum_j |fw_j e^{-i xi y_j}|, which is sum_j |fw_j| for real xi
    scale = np.abs(phases) @ np.abs(fw)
    assert np.all(np.abs(got - phases @ fw) <= 1e-12 * scale)


@st.composite
def argument_panels(draw):
    # a composite rule over [0, top], cut at up to three points so that
    # its panels come in runs of different widths, read as (panels,
    # nodes) and scaled by a real or complex factor, as c omega and s t
    # are in the band energies
    top = draw(st.floats(0.5, 40.0))
    cuts = [top * c for c in draw(st.lists(st.floats(0.0, 1.0), max_size=3))]
    qa = draw(st.sampled_from([1, 2, 5, 8, 16]))
    t, _ = composite_rule(0.0, top, cuts, draw(st.floats(0.0, 2.0)),
                          base_panels=draw(st.integers(1, 4)), nodes=qa)
    angle = draw(st.one_of(st.just(0.0), st.floats(-0.1, 0.1)))
    return (draw(st.floats(0.5, 2.5)) * np.exp(1j * angle) * t).reshape(-1, qa)


@settings(max_examples=120, deadline=None)
@given(straddling_sources(), st.sampled_from(["right", "left"]),
       st.sampled_from([4, 8, 16]), argument_panels(), st.booleans(),
       st.sampled_from([1, 7, 64, 4096]))
def test_two_sided_sum_matches_dense_sum(f, side, nodes, xis, paired, chunk):
    # the sum factored over argument panels as well as node panels
    # against the node-by-node sum over the same rule, argument by
    # argument; a chunk shorter than a row still takes whole rows
    pair = split_source(f)
    src = pair.f1 if side == "right" else pair.f2
    y, w = source_rule(src, float(np.max(np.abs(xis.real))), nodes=nodes)
    phases = np.exp(-1j * np.outer(xis.ravel(), y))
    fw = w * src(y)
    if paired:
        fw = np.stack([fw, np.conj(fw)], axis=-1)
    got = halfline_ft_many(pair, side, xis, nodes=nodes, chunk=chunk, paired=paired)
    assert got.shape == xis.shape + fw.shape[1:]
    want = (phases @ fw).reshape(got.shape)
    scale = (np.abs(phases) @ np.abs(fw)).reshape(got.shape)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def _conjugate(f):
    """conj f, as a source of the same kind."""
    samples = None if f.samples is None else np.conj(f.samples)
    return dataclasses.replace(f, amplitude=np.conj(f.amplitude), mod_freq=-f.mod_freq,
                               samples=samples)


@st.composite
def placed_sources(draw, max_order=3):
    # across the interface, wholly on one side (the other side empty), or
    # ending on the interface itself; B-splines of order 1 to max_order
    place = draw(st.sampled_from(["straddle", "right", "left", "to_zero", "from_zero"]))
    if place == "straddle":
        a, b = draw(st.floats(-0.9, -0.05)), draw(st.floats(0.05, 0.9))
    elif place in ("right", "left"):
        a = draw(st.floats(0.05, 0.6))
        b = a + draw(st.floats(0.1, 0.35))
        if place == "left":
            a, b = -b, -a
    else:
        w = draw(st.floats(0.1, 0.9))
        a, b = (-w, 0.0) if place == "to_zero" else (0.0, w)
    amp = draw(amplitudes)
    kind = draw(st.sampled_from(["bump", "bspline", "modulated_bump", "grid"]))
    if kind == "bump":
        return SourceSpec.bump(a, b, amp)
    if kind == "bspline":
        return SourceSpec.bspline(a, b, draw(st.integers(1, max_order)), amp)
    if kind == "modulated_bump":
        return SourceSpec.modulated_bump(a, b, draw(st.floats(-20.0, 20.0)), amp)
    n = draw(st.integers(3, 12))
    samples = draw(st.lists(amplitudes, min_size=n, max_size=n))
    return SourceSpec.from_grid(np.linspace(a, b, n), samples)


frequency_arrays = st.builds(
    lambda lo, hi, im, n: np.linspace(lo, hi, n) + 1j * im * np.linspace(0.0, 1.0, n) ** 2,
    st.floats(0.05, 40.0), st.floats(0.05, 40.0),
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), st.integers(1, 64))


@settings(max_examples=120, deadline=None)
@given(media, placed_sources(), frequency_arrays, st.sampled_from([8, 16]))
def test_endpoint_amplitudes_match_per_row_transforms(medium, f, om, nodes):
    # the per-side tables against one half-line transform per endpoint
    # row: F_e adds coeff e^{i phase om} fhat(-rate om), G_e adds
    # coeff e^{-i phase om} (conj f)^(rate om); a complex om takes the
    # second table at conj xi
    cf = _conjugate(f)
    x = np.linspace(-1.0, 1.0, 41)
    assert np.array_equal(cf(x), np.conj(f(x)))
    pair, cpair = split_source(f), split_source(cf)
    want = {(e, g): 0j for e in ("minus", "plus") for g in (False, True)}
    largest = dict.fromkeys(want, 0.0)
    for e, coeff, side, rate, phase in _endpoint_rows(medium):
        for g, src, sgn in ((False, pair, 1.0), (True, cpair, -1.0)):
            term = (coeff * np.exp(sgn * 1j * phase * om)
                    * halfline_ft_many(src, side, -sgn * rate * om, nodes=nodes))
            want[e, g] = want[e, g] + term
            largest[e, g] = max(largest[e, g], float(np.max(np.abs(term))))
    got = _endpoint_amplitudes(pair, medium, om, nodes=nodes)
    for k in want:
        assert got[k].shape == om.shape
        assert np.all(np.abs(got[k] - want[k]) <= 1e-12 * largest[k])


@settings(max_examples=60, deadline=None)
@given(media, placed_sources(), st.floats(0.05, 40.0), st.floats(0.05, 40.0),
       st.sampled_from([1, 8, 16]), st.integers(1, 4))
def test_real_frequency_partner_is_the_conjugate(medium, f, lo, hi, q, rows):
    # data_energy integrates F G for |F|^2 at every s: at real omega the
    # kernel-conjugate partner G is conj F bit for bit, at both
    # endpoints, for 1-D and panelled omega alike
    om = np.linspace(lo, hi, q * rows)
    pair = split_source(f)
    for omegas in (om, om.reshape(rows, q)):
        amps = _endpoint_amplitudes(pair, medium, omegas)
        for e in ("minus", "plus"):
            assert np.array_equal(amps[e, True], np.conj(amps[e, False]))
    energy = data_energy(f, medium, hi)
    assert energy.I1.imag == 0.0 and energy.I2.imag == 0.0
    assert energy.I1.real >= 0.0 and energy.I2.real >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.builds(Medium, st.floats(0.3, 3.0), st.floats(0.3, 3.0)), placed_sources(max_order=4))
@example(Medium(1.0, 1.5), SourceSpec.bump(-0.5, 0.5, amplitude=0.0))
def test_phase_window_holds_every_phase(medium, f):
    # every term coeff e^{i theta omega} of F_e, theta = phase + rate y
    # over e's rows and the nodes y of each half's rule, has its theta in
    # e's window, and the spread is the widest window, at most 2 c_max
    pair = split_source(f)
    spread, windows = _phase_spread(pair, medium)
    assert spread == max((hi - lo for lo, hi in windows.values()), default=0.0)
    assert 0.0 <= spread <= 2.0 * medium.c_max * (1.0 + 1e-15)
    if f.amplitude == 0:
        assert windows == {}
        return
    for e, _, side, rate, phase in _endpoint_rows(medium):
        half = pair.f1 if side == "right" else pair.f2
        y, _ = source_rule(half, abs(rate) * 10.0)
        if len(y):
            lo, hi = windows[e]
            theta = phase + rate * y
            assert lo <= theta.min() and theta.max() <= hi


def _energy_on_rule(f, medium, s, n_quad, osc_rate):
    """``data_energy``'s sum I on the rule in t resolved at ``osc_rate``."""
    t, w = composite_rule(0.0, 1.0, osc_rate=osc_rate, nodes=n_quad)
    amps = _endpoint_amplitudes(split_source(f), medium, (s * t).reshape(-1, n_quad),
                                nodes=n_quad)
    return sum(s * np.sum(w * (amps[e, False] * amps[e, True]).ravel())
               for e in ("minus", "plus"))


@settings(max_examples=80, deadline=None)
@given(st.builds(Medium, st.floats(0.3, 3.0), st.floats(0.3, 3.0)), placed_sources(max_order=4),
       # complex s up to |s| = 20, where the transforms' terms stay far from overflow
       st.one_of(st.floats(0.5, 150.0),
                 st.builds(lambda r, arg: r * np.exp(1j * arg), st.floats(0.5, 20.0),
                           st.floats(-0.78, 0.78))),
       st.sampled_from([8, 16]))
# a source on one side only, one that touches the interface, a zero source
@example(Medium(0.6, 1.9), SourceSpec.bump(0.2, 0.8, 1.2), 60.0, 8)
@example(Medium(3.0, 1.0), SourceSpec.bspline(0.0, 0.875, 3), 15.0 + 8.0j, 16)
@example(Medium(1.0, 1.5), SourceSpec.bump(-0.5, 0.5, amplitude=0.0), 20.0 + 6.0j, 8)
def test_spread_rule_matches_the_worst_case_rule(medium, f, s, n_quad):
    # the band energy on its rule resolved at the source's phase spread
    # against the same sum on a rule resolved at 4 c_max |s|, twice the
    # widest spread, for real s and complex s in |arg s| < pi/4.  At real
    # s every term F G = |F|^2 is positive, and the bound is relative to
    # I.  At complex s the transforms' terms grow like e^{|rate y Im s|}
    # where F and G may not, so both sums round at the size of their
    # terms: |s| e^{spread |Im s|} times, at each endpoint, the square of
    # the sum over its rows of |coeff| ||f_side||_L1
    s, r = complex(s), abs(s)
    got = data_energy(f, medium, s, n_quad=n_quad).I
    want = _energy_on_rule(f, medium, s, n_quad, 4.0 * medium.c_max * r)
    if not s.imag:
        assert abs(got - want) <= 1e-13 * abs(want)
        return
    pair = split_source(f)
    l1 = {half.side: np.sum(w * np.abs(v))
          for half in (pair.f1, pair.f2) for w, v in [_weighted_values(half)]}
    size = {"minus": 0.0, "plus": 0.0}
    for e, coeff, side, _, _ in _endpoint_rows(medium):
        size[e] += abs(coeff) * l1[side]
    spread, _ = _phase_spread(pair, medium)
    scale = r * np.exp(spread * abs(s.imag)) * (size["minus"] ** 2 + size["plus"] ** 2)
    assert abs(got - want) <= 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(st.builds(Medium, st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
       placed_sources(max_order=8), st.floats(0.5, 80.0), st.integers(8, 64))
# a source from the interface, whose data cancel to 2e-5 - 1e-3 of the terms
@example(Medium(3.0, 1.0), SourceSpec.bspline(0.0, 0.875, 3), 52.0, 8)
def test_endpoint_data_matches_boundary_sweep(medium, f, K, n_omega):
    # the endpoint representation i F_e / omega against the Green's-kernel
    # quadrature over the whole source.  Both routes sum the terms of
    # e's rows, coeff e^{i phase omega} int e^{i rate omega y} f_side(y) dy
    # over omega, so the bound is stated at each frequency against their
    # size, sum over the rows of |coeff| ||f_side||_L1 / omega (the scale
    # of verify's amplitude-bound line), not against max|u|, which can
    # cancel far below it
    grid = FrequencyGrid.uniform(K, n_omega)
    ref = boundary_sweep(f, medium, grid)
    got = endpoint_data(f, medium, grid)
    assert got.grid is grid
    pair = split_source(f)
    l1 = {}
    for half in (pair.f1, pair.f2):
        w, v = _weighted_values(half)
        l1[half.side] = np.sum(w * np.abs(v))
    scale = {"minus": 0.0, "plus": 0.0}
    for e, coeff, side, _, _ in _endpoint_rows(medium):
        scale[e] += abs(coeff) * l1[side]
    for e, u, want in (("minus", got.u_minus, ref.u_minus), ("plus", got.u_plus, ref.u_plus)):
        assert np.all(np.abs(u - want) <= 1e-13 * scale[e] / grid.omegas)


@settings(max_examples=30, deadline=None)
@given(st.builds(Medium, st.floats(0.3, 3.0), st.floats(0.3, 3.0)), placed_sources(),
       st.floats(0.5, 20.0), st.integers(3, 5))
# a source left of the interface, one right of it, one across it
@example(Medium(0.6, 1.9), SourceSpec.bump(-0.8, -0.3, 1.2), 13.0, 3)
@example(Medium(1.7, 0.5), SourceSpec.bspline(0.15, 0.6, 3, -0.7j), 4.5, 4)
@example(Medium(1.1, 1.4), SourceSpec.modulated_bump(-0.35, 0.4, 9.0, -2.0), 19.0, 5)
def test_endpoint_data_matches_the_linear_system_kernel(medium, f, K, n_omega):
    # the endpoint representation against the Green's function rebuilt,
    # node by node, from the 4x4 continuity solve: no closed-form
    # amplitude, kernel or endpoint row is shared between the two routes
    grid = FrequencyGrid.uniform(K, n_omega)
    y, w = source_rule(f, medium.c_max * K)
    fw = w * f(y)
    want = np.array([[sum(wj * eval_from_coeffs(green_coeffs_via_linear_system(yj, medium, om),
                                                e, yj, medium, om)
                          for yj, wj in zip(y.tolist(), fw.tolist()))
                      for om in grid.omegas.tolist()] for e in (-1.0, 1.0)])
    got = endpoint_data(f, medium, grid)
    diff = np.array([got.u_minus, got.u_plus]) - want
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(want))


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(media, st.floats(-0.95, -0.1), st.floats(0.1, 0.95), st.integers(100, 201),
       st.floats(2.0, 40.0), st.integers(8, 40))
def test_operator_columns_at_interface_match_grid_sweep(medium, a, b, n_basis, K, n_omega):
    # the cell that holds x = 0 is integrated in two pieces, as the grid
    # source rule does, so the hats next to the interface carry no
    # quadrature error from the kink of the kernel there (cells of at
    # most 0.02 keep the rest of each rule at rounding level)
    op = assemble_operator(medium, FrequencyGrid.uniform(K, n_omega), n_basis, (a, b))
    scale = np.max(np.abs(op.matrix))
    nearest = np.argsort(np.abs(op.basis_x))[:3]
    for j in nearest:
        e = np.zeros(n_basis)
        e[j] = 1.0
        col = op.weighted_data(boundary_sweep(op.grid_source(e), medium, op.grid))
        assert np.max(np.abs(op.matrix[:, j] - col)) <= 1e-12 * scale


@st.composite
def hat_bases(draw):
    """(n_basis, support) of a hat basis right of the interface, left of
    it, across it, or with a node exactly at 0 (a dyadic spacing makes
    every node exact)."""
    n = draw(st.integers(8, 60))
    kind = draw(st.sampled_from(["right", "left", "across", "node at 0"]))
    if kind == "node at 0":
        h = 2.0 ** -int(np.ceil(np.log2(n + 1)))
        m = draw(st.integers(1, n))
        return n, (-m * h, (n + 1 - m) * h)
    if kind == "across":
        return n, (draw(st.floats(-0.95, -0.05)), draw(st.floats(0.05, 0.95)))
    a = draw(st.floats(0.0, 0.8))
    b = draw(st.floats(a + 0.1, 0.95))
    return n, ((a, b) if kind == "right" else (-b, -a))


def _fine_operator(medium, grid, n_basis, support):
    # the hats on a 40-node Gauss rule per half-cell, split at 0, through
    # the kernel (forward._endpoint_map), rows weighted as the operator's
    a, b = support
    edges = np.linspace(a, b, n_basis + 2)
    x, h = edges[1:-1], edges[1] - edges[0]
    halves = 0.5 * (edges[:-1] + edges[1:])
    y, w = composite_rule(a, b, [*x, *halves, 0.0], medium.c_max * grid.omegas[-1],
                          base_panels=1, nodes=40)
    H = np.clip(1.0 - np.abs((y[:, None] - x[None, :]) / h), 0.0, None) * w[:, None]
    om = grid.omegas
    wr = om * np.sqrt(trapezoid_weights(om))
    return _endpoint_map(om, y, H, medium) * np.concatenate([wr, wr])[:, None]


@settings(max_examples=100, deadline=None)
@given(st.builds(Medium, st.floats(0.3, 3.0), st.floats(0.3, 3.0)), st.floats(0.5, 40.0),
       st.integers(8, 40), hat_bases())
def test_exact_operator_matches_a_fine_rule(medium, K, n_omega, basis):
    # the hats' exact transforms against a rule far finer than the
    # operator's own: they agree to rounding (3.1e-14 the worst of 1,500
    # draws), while assemble_operator's six-node cells carry their own
    # error (3.7e-12 the worst, at c = (3.0, 0.46), K = 20.7)
    n_basis, support = basis
    grid = FrequencyGrid.uniform(K, n_omega)
    exact = _exact_operator(medium, grid, n_basis, support)
    ref = _fine_operator(medium, grid, n_basis, support)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(exact.matrix - ref)) <= 1e-13 * scale
    quad = assemble_operator(medium, grid, n_basis, support)
    assert np.max(np.abs(quad.matrix - exact.matrix)) <= 1e-11 * scale
    np.testing.assert_array_equal(exact.row_weights, quad.row_weights)
    np.testing.assert_array_equal(exact.basis_x, quad.basis_x)
    assert exact.support == quad.support


@pytest.mark.parametrize("k", range(1, 9))
def test_phi_matches_its_integral_on_a_gauss_rule(k):
    # phi_k(t) = int_0^1 e^{(1 - s) t} s^{k-1} / (k - 1)! ds on a 64-node
    # Gauss rule, at |t| from 1e-3 to 3k on both sides of the series cut
    # |t| = k, imaginary and of other arguments.  The rule's own rounding
    # reaches 2e-14 relative at k = 8; phi_k's is under 1e-15
    s, w = np.polynomial.legendre.leggauss(64)
    s, w = (s + 1.0) / 2.0, w / 2.0
    size = np.concatenate([np.geomspace(1e-3, 0.999 * k, 9), np.geomspace(k, 3.0 * k, 9)])
    angle = np.concatenate([[np.pi / 2, -np.pi / 2],
                            np.random.default_rng(k).uniform(-np.pi, np.pi, 6)])
    t = np.multiply.outer(size, np.exp(1j * angle)).ravel()
    want = (np.exp(np.multiply.outer(t, 1.0 - s)) * s ** (k - 1)) @ w / math.factorial(k - 1)
    got = _phi(k, t)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@st.composite
def spline_sources(draw):
    """An order 1-6 B-spline source wholly left of the interface, wholly
    right of it, across it, or with an end exactly at 0."""
    order = draw(st.integers(1, 6))
    width = draw(st.floats(0.02, 0.9))
    place = draw(st.sampled_from(["left", "right", "across", "end at 0"]))
    if place == "across":
        a = -width * draw(st.floats(0.01, 0.99))
    elif place == "end at 0":
        a = draw(st.sampled_from([0.0, -width]))
    else:
        a = draw(st.floats(1e-3, 0.95 - width))
        a = a if place == "right" else -a - width
    return SourceSpec.bspline(a, a + width, order, draw(amplitudes))


@settings(max_examples=150, deadline=None)
@given(spline_sources(), st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.booleans(),
       st.floats(0.5, 80.0), st.integers(2, 120))
def test_spline_columns_match_endpoint_data(f, c, d, swap, K, n_omega):
    # a B-spline source's exact transform (the spline of h = (b - a) / n
    # centred at (a + b) / 2, times amplitude / peak) against the
    # quadrature route, either speed the larger
    medium = Medium(*sorted((c, d), reverse=swap))
    grid = FrequencyGrid.uniform(K, n_omega)
    u = _spline_columns(medium, grid.omegas, [(f.a + f.b) / 2], (f.b - f.a) / f.order, f.order)
    want = endpoint_data(f, medium, grid)
    want = np.concatenate([want.u_minus, want.u_plus])
    assert np.max(np.abs(u[:, 0] * (f.amplitude / f._peak) - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-8, 1.0), st.floats(0.0, 10.0), seeds)
def test_noise_is_calibrated_to_eps(eps, size, seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.uniform(rng.uniform(1.0, 50.0), int(rng.integers(2, 200)))
    # data of size comparable to eps, so the subtraction below is exact to
    # a few ulps of eps
    um, up = size * eps * (rng.standard_normal((2, len(grid)))
                           + 1j * rng.standard_normal((2, len(grid))))
    data = BoundaryData(grid, um, up)
    noisy = add_noise(data, eps, seed)
    pert = BoundaryData(grid, noisy.u_minus - um, noisy.u_plus - up)
    assert abs(epsilon_norm(pert) - eps) <= 1e-12 * eps
    again = add_noise(data, eps, seed)
    assert np.array_equal(again.u_minus, noisy.u_minus)
    assert np.array_equal(again.u_plus, noisy.u_plus)


@settings(max_examples=40, deadline=None)
@given(media, st.floats(4.0, 20.0), st.integers(20, 60), st.integers(8, 40),
       st.floats(1e-4, 1e-1), seeds)
def test_morozov_scan_matches_explicit_scan(medium, K, n_omega, n_basis, eps, seed):
    op = assemble_operator(medium, FrequencyGrid.uniform(K, n_omega), n_basis, (-0.9, 0.9))
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.85, 0.2)
    f = SourceSpec.bump(a, a + rng.uniform(0.3, 0.6), np.exp(2j * np.pi * rng.uniform()))
    data = add_noise(op.boundary_data(f(op.basis_x)), eps, seed)
    _, S, _ = op.svd()
    ladder = S[0] * np.logspace(-8.0, 0.0, 25)
    target = 1.1 * eps
    # the rule with one explicit Tikhonov solve per ladder value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        explicit = np.array([reconstruct_tikhonov(op, data, lam).residual for lam in ladder])
    met = np.flatnonzero(explicit <= target)
    want = ladder[met[-1]] if len(met) else ladder[0]
    got = morozov_lambda(op, data, eps)
    near = np.abs(explicit - target) <= 1e-10 * target
    assert got == want or near.any()
    i = int(np.flatnonzero(ladder == got)[0])
    closed = _tikhonov_residuals(op, data, ladder)
    assert abs(closed[i] - explicit[i]) <= 1e-10 * explicit[i]


def _per_cell_sweep(cfg):
    """The sweep's records solved one cell at a time, as ``run_sweep``
    solved them before its cells became blocks: per K the same operator
    and clean data, the sources' exact transforms, and per cell its own
    noise, ``_solve`` on that one data set and ``recon_error`` against
    the unit-norm source."""
    medium = Medium(cfg.c1, cfg.c2)
    pad = 0.02 * (cfg.sweep_support_b - cfg.sweep_support_a)
    support = (max(-0.99, cfg.sweep_support_a - pad), min(0.99, cfg.sweep_support_b + pad))
    records = []
    for iK, K in enumerate(cfg.sweep_K_list):
        op = _exact_operator(medium, cli.build_grid(cfg, K=K), cfg.n_basis, support)
        clean = {}
        for n in cfg.sweep_n_list:
            for trial in range(cfg.sweep_trials):
                f = cli._sweep_source(cfg, n, trial)
                u = _spline_columns(medium, op.grid.omegas, [(f.a + f.b) / 2], (f.b - f.a) / n, n)
                u = u[:, 0] * (f.amplitude / f._peak)
                clean[n, trial] = f, BoundaryData(op.grid, *np.split(u, 2))
        for ieps, eps in enumerate(cfg.sweep_eps_list):
            for n in cfg.sweep_n_list:
                for trial in range(cfg.sweep_trials):
                    cell_seq = np.random.SeedSequence((cfg.seed, iK, ieps, n, trial))
                    cell_seed = int(cell_seq.generate_state(1)[0])
                    f, data = clean[n, trial]
                    noisy = add_noise(data, eps, cell_seed)
                    result = cli._solve(cfg, op, noisy, eps)
                    err = recon_error(result, f)
                    records.append(ExperimentRecord(K, eps, n, result.method,
                                                    result.reg_param, err, 0.0, cell_seed))
    return records


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["tikhonov", "tsvd"]), st.integers(2, 8),
       st.lists(st.sampled_from([4.0, 8.0, 16.0, 40.0]), min_size=1, max_size=2, unique=True),
       st.lists(st.sampled_from([1e-1, 1e-2, 1e-3]), max_size=3, unique=True),
       st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
       st.integers(1, 3), st.integers(40, 80), st.integers(21, 61), seeds)
def test_sweep_blocks_match_the_per_cell_solves(method, k, K_list, noisy, n_list, trials,
                                                n_omega, n_basis, seed):
    # each (K, eps) block against its cells solved one by one: the same
    # lambda, and errors that differ only by the rounding of a block's
    # matrix products.  TSVD ranks stay at most 8, where the operators'
    # singular values stay well above rounding; past that, rank-k TSVD of
    # noiseless data is rounding noise, and any two product orders differ
    cfg = RunConfig(method=method, tsvd_k=k, n_omega=n_omega, n_basis=n_basis,
                    sweep_K_list=tuple(K_list), sweep_eps_list=(0.0, *noisy),
                    sweep_n_list=tuple(n_list), sweep_trials=trials, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        got, want = cli.run_sweep(cfg), _per_cell_sweep(cfg)
    assert [(r.K, r.eps, r.n, r.method, r.seed, r.error) for r in got] \
        == [(r.K, r.eps, r.n, r.method, r.seed, r.error) for r in want]
    assert [r.reg_param for r in got] == [r.reg_param for r in want]
    for r, w in zip(got, want):
        assert abs(r.l2_error - w.l2_error) <= 1e-9 * w.l2_error, (r, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 201), st.integers(4, 250), st.lists(st.integers(1, 20), min_size=1,
                                                          max_size=4), seeds)
def test_svd_without_u_matches_gesdd(n_basis, n_omega, widths, seed):
    # the operator factored without U (a QR of the operator, where gesdd
    # would begin with one) and its data reflected, against gesdd and the
    # projection through U, on random operators and data: beyond the QR
    # route's singular values and vectors, only quantities that no
    # singular-vector phase moves.  All blocks but the last are projected
    # at once, the last alone when its solves first read it
    assume(sum(widths) <= 40)
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.uniform(10.0, n_omega)
    m = 2 * n_omega

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    matrix, weights = gaussian(m, n_basis), rng.uniform(0.5, 2.0, m)
    blocks = [BoundaryData(grid, *np.split(gaussian(m, w) if w > 1 else gaussian(m), 2))
              for w in widths]
    qr, ref = (ForwardOperator(grid, np.linspace(-0.9, 0.9, n_basis), (-0.95, 0.95),
                               matrix.copy(), weights) for _ in range(2))
    got, (U, S_ref, Vh_ref) = qr.svd(u=False), ref.svd()
    S = got[1]
    assert np.max(np.abs(S - S_ref)) <= 1e-13 * S_ref[0]
    if m >= 17 * n_basis / 9:
        # gesdd's own QR and SVD of R: its singular values and vectors
        # to the bit, with no U formed
        assert got[0] is None
        assert np.array_equal(S, S_ref) and np.array_equal(got[2], Vh_ref)
    else:
        assert got[0] is not None
    if len(blocks) > 1:
        qr.project(*blocks[:-1])
    ladder = S_ref[0] * np.logspace(-8.0, 0.0, 25)
    lam = S_ref[0] * 10.0 ** rng.uniform(-3.0, 0.0)
    filt = S_ref / (S_ref ** 2 + lam ** 2)
    for block in blocks:
        d, _, perp = qr._projected(block)
        _, _, perp_ref = ref._projected(block)
        norm_d = np.linalg.norm(d, axis=0)
        assert np.all(np.abs(perp - perp_ref) <= 1e-12 * norm_d)
        # where the operator's range holds every datum (2 n_omega <=
        # n_basis), the residuals at small lambdas are rounding of ||d||
        res, res_ref = (_tikhonov_residuals(op, block, ladder) for op in (qr, ref))
        floor = 1e-14 * norm_d if m <= n_basis else 0.0
        assert np.all(np.abs(res - res_ref) <= 1e-12 * res_ref + np.asarray(floor)[..., None])
        coeffs, coeffs_ref = (_filtered_solve(op, block, filt)[0] for op in (qr, ref))
        assert np.all(np.linalg.norm(coeffs - coeffs_ref, axis=0)
                      <= 1e-12 * np.linalg.norm(coeffs_ref, axis=0))


def test_sweep_factors_no_operator_by_svd(monkeypatch):
    # every band factors its operator by a QR and an SVD of its R factor:
    # the only SVDs the sweep takes are of square R factors, never of the
    # 2 n_omega x n_basis operator
    cfg = parse_config_text("frequency.n_omega = 40\nsweep.K_list = 4,8\n"
                            "sweep.eps_list = 0,1e-2\nsweep.n_list = 1,2\nsweep.trials = 2\n"
                            "inverse.n_basis = 31\n")
    real, shapes = np.linalg.svd, []

    def recorded(a, *args, **kw):
        shapes.append(np.shape(a))
        return real(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    records = cli.run_sweep(cfg)
    assert all(r.error == "" for r in records)
    assert shapes == [(31, 31)] * 2


def _bits(v):
    # IEEE bit patterns, with -0 read as +0
    return (np.asarray(v, dtype=float) + 0.0).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6),
       st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=2, max_size=2, unique=True),
       st.lists(st.floats(-0.2, 1.2), max_size=40))
def test_bspline_matches_scipy_bit_for_bit(order, ends, fractions):
    from scipy.interpolate import BSpline

    a, b = sorted(ends)
    knots = np.linspace(a, b, order + 1)
    if not np.all(np.diff(knots) >= np.finfo(float).tiny):
        # scipy's recurrence overflows (or divides by zero) on such knots
        with pytest.raises(ValueError, match="too narrow"):
            SourceSpec.bspline(a, b, order)
        return
    x = np.concatenate([a + np.array(fractions) * (b - a), knots,
                        [0.5 * (a + b), np.nextafter(a, -2.0), np.nextafter(b, 2.0),
                         a - 0.5, b + 0.5]])
    basis = BSpline.basis_element(knots, extrapolate=False)
    want = np.nan_to_num(basis(x))
    spec = SourceSpec.bspline(a, b, order)
    assert np.array_equal(_bits(_bspline_basis(spec._knots, order - 1, x)), _bits(want))
    # and the source: the basis over its midpoint value, as before
    peak = float(np.nan_to_num(basis(0.5 * (a + b))))
    got = spec(x)
    assert np.array_equal(_bits(got.real), _bits(want / (peak if peak > 0 else 1.0)))
    assert not np.any(got.imag)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
inside = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
counts = st.integers(1, 10**6)
supports = st.lists(inside, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def run_config_fields(draw):
    K = draw(positive)
    floor = draw(st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True).map(
        lambda u: K * u)))
    assume(floor is None or 0 < floor <= K)
    (sa, sb), (ia, ib), (wa, wb) = draw(supports), draw(supports), draw(supports)
    return dict(
        c1=draw(positive), c2=draw(positive), K=K, n_omega=draw(counts),
        omega_floor=floor,
        source_kind=draw(st.sampled_from(["bump", "bspline", "modulated_bump"])),
        source_a=sa, source_b=sb, source_order=draw(counts),
        source_mod_freq=draw(finite), source_amp_re=draw(finite), source_amp_im=draw(finite),
        method=draw(st.sampled_from(["tikhonov", "tsvd", "homogeneous_ft"])),
        lam=draw(positive), tsvd_k=draw(counts), n_basis=draw(st.integers(8, 10**6)),
        support_a=ia, support_b=ib, eps=draw(non_negative),
        seed=draw(st.integers(0, 2**63)),
        sweep_K_list=tuple(draw(st.lists(positive, max_size=6))),
        sweep_eps_list=tuple(draw(st.lists(non_negative, max_size=6))),
        sweep_n_list=tuple(draw(st.lists(counts, max_size=6))),
        sweep_trials=draw(counts), sweep_support_a=wa, sweep_support_b=wb)


SWEEP_LISTS = ("sweep_K_list", "sweep_eps_list", "sweep_n_list")


@settings(max_examples=200, deadline=None)
@given(run_config_fields())
def test_config_text_round_trip(fields):
    if not all(fields[key] for key in SWEEP_LISTS):
        # serialized, an empty list would read 'sweep.eps_list = ', which
        # no parse accepts; so the config itself is refused
        with pytest.raises(ConfigError, match="must not be empty"):
            RunConfig(**fields)
        return
    cfg = RunConfig(**fields)
    assert parse_config_text(serialize_config(cfg)) == cfg


complex_values = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(positive, min_size=1, max_size=50, unique=True), st.data())
def test_boundary_csv_round_trip(omegas, data):
    om = np.sort(omegas)
    n = len(om)
    um, up = (np.array(data.draw(st.lists(complex_values, min_size=n, max_size=n)),
                       dtype=complex) for _ in range(2))
    sent = BoundaryData(FrequencyGrid(om, float(om[-1])), um, up)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        write_boundary_csv(sent, path)
        got = read_boundary_csv(path, float(om[-1]))
    assert np.array_equal(got.grid.omegas, om)
    assert np.array_equal(got.u_minus, um)
    assert np.array_equal(got.u_plus, up)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# every float but a NaN with a sign or payload the writer does not keep:
# -0.0, subnormals, infinities and the NaN of a failed sweep cell
cell_floats = st.floats(allow_nan=False) | st.just(float("nan"))
# commas, quotes, CR and LF all need the CSV quoting
cell_text = st.text(st.sampled_from(',"\r\n x') | st.characters(blacklist_categories=("Cs",)),
                    max_size=30)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(cell_floats, cell_floats, st.integers(), st.sampled_from(METHODS),
                          cell_floats, cell_floats, cell_floats, st.integers(0, 2**64 - 1),
                          cell_text), max_size=8))
def test_sweep_csv_round_trip(rows):
    sent = [ExperimentRecord(*row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        write_sweep_csv(path, sent)
        got = read_sweep_csv(path)
    assert len(got) == len(sent)
    for r, g in zip(sent, got):
        assert (_bits([r.K, r.eps, r.reg_param, r.l2_error, r.runtime_ms])
                == _bits([g.K, g.eps, g.reg_param, g.l2_error, g.runtime_ms]))
        assert (r.n, r.method, r.seed, r.error) == (g.n, g.method, g.seed, g.error)


tail_values = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(tail_values, tail_values), max_size=8),
       st.lists(cell_floats, max_size=8))
def test_tail_and_ratio_csv_round_trip(pairs, ratios):
    s_vals, T_vals = np.array(pairs, dtype=float).reshape(-1, 2).T
    with tempfile.TemporaryDirectory() as tmp:
        tail, ratio = os.path.join(tmp, "tail.csv"), os.path.join(tmp, "ratio.csv")
        write_tail_csv(tail, s_vals, T_vals)
        write_ratio_csv(ratio, ratios)
        tail_rows = _read_csv(tail, ["s", "T", "logs", "logT"], [float] * 4)
        ratio_rows = _read_csv(ratio, ["trial", "ratio"], [int, float])
    got = np.array(tail_rows).reshape(-1, 4)
    assert _bits(got.T) == _bits([s_vals, T_vals, np.log(s_vals), np.log(T_vals)])
    assert [i for i, _ in ratio_rows] == list(range(len(ratios)))
    assert _bits([r for _, r in ratio_rows]) == _bits(ratios)


battery_draws = st.lists(st.tuples(sources(), media, st.floats(0.2, 20.0)),
                         min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(battery_draws)
# one source left of the interface, one right of it, one across it, and
# one of each kind with a negative amplitude
@example([(SourceSpec.bump(-0.8, -0.3, 1.2), Medium(0.6, 1.9), 13.0),
          (SourceSpec.bspline(0.15, 0.6, 3, -0.7j), Medium(1.7, 0.5), 4.5),
          (SourceSpec.modulated_bump(-0.35, 0.4, 9.0, -2.0), Medium(1.1, 1.4), 19.0),
          (SourceSpec.bspline(-0.5, 0.1, 1, -1.0), Medium(2.0, 2.0), 0.3)])
# a bump whose right edge lies just past the interface, nearer it than
# the edge's flat-end width
@example([(SourceSpec.bump(-0.498046875, 0.001953125), Medium(1.0, 2.0), 17.0),
          (SourceSpec.bump(-0.4921875, 0.0078125), Medium(2.0, 1.0), 19.0)])
def test_batched_battery_matches_per_draw_routes(draws):
    # every draw of a batch against routes that see that draw alone: the
    # fields bit for bit against forward_field / forward_field_dx (same
    # rule, kernel doubles and per-draw sums), lhs against a
    # one-frequency boundary_sweep and the transforms against
    # halfline_ft_many on each half's own rule, to 1e-13
    bounds = endpoint_amplitude_bound_many(draws)
    radiation = check_radiation_many(draws)
    traces = interface_traces_many(draws)
    assert bounds.shape == (len(draws), 6) and radiation.shape == (len(draws), 2)
    for (f, medium, omega), (lm, rm, lp, rp, sm, sp), rad, rep in zip(draws, bounds,
                                                                      radiation, traces):
        k1, k2 = medium.c1 * omega, medium.c2 * omega
        um, up, u0 = (forward_field(f, medium, omega, x) for x in (-1.0, 1.0, 0.0))
        dum, dup, du0 = (forward_field_dx(f, medium, omega, x) for x in (-1.0, 1.0, 0.0))
        assert tuple(rad) == (abs(dum + 1j * k2 * um), abs(dup - 1j * k1 * up))
        assert (rep.u0, rep.du0) == (u0, du0)

        data = boundary_sweep(f, medium, FrequencyGrid(np.array([omega]), omega))
        assert np.sqrt(lm) == pytest.approx(omega * abs(data.u_minus[0]), rel=1e-13,
                                            abs=1e-13 * sm)
        assert np.sqrt(lp) == pytest.approx(omega * abs(data.u_plus[0]), rel=1e-13,
                                            abs=1e-13 * sp)
        pair = split_source(f)
        rhs, scale, l1 = {"minus": 0.0, "plus": 0.0}, {"minus": 0.0, "plus": 0.0}, {}
        for half in (pair.f1, pair.f2):
            y, w = source_rule(half, 0.0)
            l1[half.side] = float(np.sum(w * np.abs(half(y))))
            for e, coeff, side, rate, _ in _endpoint_rows(medium):
                if side == half.side:
                    rhs[e] += abs(coeff) * abs(halfline_ft_many(pair, side, [-rate * omega])[0])
                    scale[e] += abs(coeff) * l1[side]
        assert (sm, sp) == pytest.approx((scale["minus"], scale["plus"]), rel=1e-13)
        assert np.sqrt(rm) == pytest.approx(rhs["minus"], rel=1e-13, abs=1e-13 * sm)
        assert np.sqrt(rp) == pytest.approx(rhs["plus"], rel=1e-13, abs=1e-13 * sp)
        # the trace predictions read fhat_right(-k1) and fhat_left(k2)
        f1m, minus_f2p = rep.z_predicted[:2]
        assert f1m == pytest.approx(halfline_ft_many(pair, "right", [-k1])[0], rel=1e-13,
                                    abs=1e-13 * l1["right"])
        assert -minus_f2p == pytest.approx(halfline_ft_many(pair, "left", [k2])[0], rel=1e-13,
                                           abs=1e-13 * l1["left"])
        assert rep.max_residual < 1e-8


@pytest.mark.parametrize("f", [SourceSpec.bump(-0.4, 0.3, 1.5j), SourceSpec.bump(0.2, 0.7),
                               SourceSpec.bspline(-0.6, -0.1, 2)])
def test_bound_and_radiation_build_one_rule(f, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return composite_rule(*args, **kwargs)

    monkeypatch.setattr("helmlayer.forward.composite_rule", counting)
    medium = Medium(1.3, 0.7)
    endpoint_amplitude_bound_many([(f, medium, 7.5)])
    assert len(calls) == 1
    check_radiation_many([(f, medium, 7.5)])
    assert len(calls) == 2


def _huge_or_tiny(ordinary):
    """A key's ordinary values, or a magnitude log-uniform in [1e-300, 1e300]."""
    return ordinary | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def _signed(magnitudes):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda p: p[0] * p[1])


@st.composite
def cli_configs(draw):
    """Config text over every key's accepted range, at small sizes: at
    most 40 frequencies, 31 hats and one band limit."""
    c1, c2 = (draw(_huge_or_tiny(st.floats(0.3, 3.0))) for _ in "12")
    K = draw(_huge_or_tiny(st.floats(1.0, 40.0)))
    # a rate past the rule's node cap exits 2 at once; keep the rest fast
    assume(max(c1, c2) * K <= 400.0 or max(c1, c2) * K >= 1e8)
    (sa, sb), (ia, ib), (wa, wb) = draw(supports), draw(supports), draw(supports)
    eps = st.just(0.0) | _huge_or_tiny(st.floats(1e-4, 0.1))
    keys = {
        "medium.c1": c1, "medium.c2": c2, "frequency.K": K,
        "frequency.n_omega": draw(st.integers(1, 40)),
        "frequency.omega_floor": draw(st.none() | st.floats(0.0, 1.0, exclude_min=True).map(
            lambda u: u * K)),
        "source.kind": draw(st.sampled_from(["bump", "bspline", "modulated_bump"])),
        "source.a": sa, "source.b": sb, "source.order": draw(st.integers(1, 12)),
        "source.mod_freq": draw(_signed(_huge_or_tiny(st.floats(0.0, 20.0)))),
        "source.amp_re": draw(st.just(0.0) | _signed(_huge_or_tiny(st.floats(0.1, 3.0)))),
        "source.amp_im": draw(st.just(0.0) | _signed(_huge_or_tiny(st.floats(0.1, 3.0)))),
        "inverse.method": draw(st.sampled_from(METHODS)),
        "inverse.lambda": draw(_huge_or_tiny(st.floats(1e-8, 1.0))),
        "inverse.k": draw(st.integers(1, 100)),
        "inverse.n_basis": draw(st.integers(8, 31)),
        "inverse.support_a": ia, "inverse.support_b": ib,
        "sweep.K_list": K,
        "sweep.eps_list": ",".join(map(repr, draw(st.lists(eps, min_size=1, max_size=2)))),
        "sweep.n_list": ",".join(map(str, draw(st.lists(st.integers(1, 4), min_size=1,
                                                        max_size=2)))),
        "sweep.trials": draw(st.integers(1, 2)),
        "sweep.support_a": wa, "sweep.support_b": wb,
        "noise.eps": draw(eps), "noise.seed": draw(st.integers(0, 2**32)),
    }
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in keys.items() if value is not None)


def _main(*argv):
    """``cli.main(argv)``'s exit code and its standard output; it must not
    raise (a traceback) nor print one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)  # deliberate, on random configs
        code = cli.main(list(argv))
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _figures(text):
    return {key: float(value) for key, value in re.findall(r"(\w+)\s*=\s*([^\s,)]+)", text)
            if key not in ("method",)}


_SMALL = ("frequency.n_omega = 20\ninverse.n_basis = 11\nsweep.n_list = 1\nsweep.trials = 1\n"
          "sweep.eps_list = 0,1e-2\n")


@settings(max_examples=60, deadline=None)
@given(cli_configs(), st.sampled_from(["forward", "sweep"]))
# each a RuntimeWarning or a traceback before the checks that now exit 2 or 3
# (or, in a sweep, fail the cells): kernel amplitudes past the double
# range, at a low band limit or at unit frequency
@example(_SMALL + "frequency.K = 1e-157\n", "forward")
@example(_SMALL + "sweep.K_list = 1e-157\n", "sweep")
@example(_SMALL + "medium.c1 = 1e-160\nmedium.c2 = 1e-160\nsweep.K_list = 1e160\n", "sweep")
# noise whose data norm underflows to 0
@example(_SMALL + "medium.c1 = 1e10\nmedium.c2 = 1e10\nfrequency.K = 1e-160\nnoise.eps = 1e-2\n",
         "forward")
# hats too narrow to tell apart, a bump evaluated far outside its support
@example(_SMALL + "sweep.support_a = 0.0\nsweep.support_b = 5e-324\n", "sweep")
@example(_SMALL + "inverse.support_a = 0.0\ninverse.support_b = 5e-324\n", "forward")
@example(_SMALL + "source.a = -5e-324\nsource.b = 5e-324\n", "forward")
# a TSVD rank past a zero singular value, a Morozov lambda that squares to 0
@example(_SMALL + "frequency.n_omega = 1\nfrequency.K = 1e-94\ninverse.method = tsvd\n"
         "inverse.support_a = 0.0\ninverse.support_b = 1e-288\n", "forward")
@example(_SMALL + "inverse.support_a = -1e-184\ninverse.support_b = 1e-184\nnoise.eps = 1e-4\n",
         "forward")
# endpoint data whose product overflows
@example(_SMALL + "medium.c1 = 6e-196\nmedium.c2 = 0.3\nsource.amp_re = 1e267\n"
         "source.amp_im = 1e267\n", "forward")
def test_cli_exits_0_2_or_3_with_finite_figures(text, command):
    # a valid config ends in exit 0 with finite figures, or in exit 2 or 3,
    # without a traceback or (Tier-1's filters) a RuntimeWarning
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, data, rec = (os.path.join(tmp, name) for name in ("run.cfg", "d.csv", "r.csv"))
        with open(cfg_path, "w") as fh:
            fh.write(text)
        code, out = _main(command, "--config", cfg_path, "--out", data)
        if code:
            return
        if command == "sweep":
            for r in read_sweep_csv(data):
                assert r.error or (np.isfinite(r.reg_param) and np.isfinite(r.l2_error)), r
            return
        assert np.isfinite(_figures(out)["epsilon"])
        read_boundary_csv(data, parse_config_text(text).K)  # refuses a non-finite cell
        code, out = _main("reconstruct", "--config", cfg_path, "--data", data, "--out", rec)
        if code:
            return
        figures = _figures(out)
        assert all(np.isfinite(figures[k]) for k in ("reg", "residual", "l2_error")), out
        cfg = parse_config_text(text)
        if not np.isfinite(figures["rel"]):
            assert np.isnan(figures["rel"]) and l2_norm_sq(build_source(cfg)) == 0, out
        cells = np.asarray(_read_csv(rec, RECON_HEADER, [float] * 5), dtype=float)
        assert np.all(np.isfinite(cells))


_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["1e300", "-1e300"])


@st.composite
def data_files(draw):
    """A hand-written ``reconstruct`` data file: 0-40 rows of finite
    cells (+-1e300 among them), then at most one fault: a wrong header,
    a cell replaced by inf, nan, an empty cell or text, or a row of the
    wrong width.  The frequency column is often the config's grid, so
    some files read."""
    n_rows = draw(st.integers(0, 40))
    grid = FrequencyGrid.uniform(5.0, max(n_rows, 1)).omegas
    on_grid = draw(st.sampled_from([True, True, False]))
    rows = [draw(st.lists(_FINITE, min_size=5, max_size=5)) for _ in range(n_rows)]
    if on_grid:
        for row, omega in zip(rows, grid):
            row[0] = repr(float(omega))
    header = CSV_HEADER
    fault = draw(st.sampled_from([None, None, "header", "cell", "width"]))
    if fault == "header":
        header = draw(st.sampled_from([CSV_HEADER[:3], CSV_HEADER[::-1]]))
    elif fault and rows:
        row = draw(st.sampled_from(rows))
        if fault == "cell":
            row[draw(st.integers(0, 4))] = draw(st.sampled_from(["inf", "-inf", "nan", "",
                                                                 "abc"]))
        else:
            row[:] = row[:4] if draw(st.booleans()) else row + ["0.0"]
    return n_rows, "".join(",".join(line) + "\n" for line in [header, *rows])


@settings(max_examples=80, deadline=None)
@given(data_files(), st.sampled_from(METHODS), st.sampled_from([0.0, 1e-2]))
@example((0, ",".join(CSV_HEADER) + "\n"), "tikhonov", 0.0)  # a header and no rows
# frequencies whose difference overflows: a RuntimeWarning before the check compared them
@example((2, ",".join(CSV_HEADER) + "\n-1.7e308,0,0,0,0\n1.7e308,0,0,0,0\n"), "tsvd", 0.0)
def test_reconstruct_exits_0_2_or_3_on_hand_written_data(data_file, method, eps):
    # whatever the data file holds, reconstruct exits 0 with finite
    # figures, or 2 or 3 having written nothing; no traceback, no
    # RuntimeWarning
    n_rows, text = data_file
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, data, rec = (os.path.join(tmp, name) for name in ("run.cfg", "d.csv", "r.csv"))
        with open(cfg_path, "w") as fh:
            fh.write(f"frequency.K = 5\nfrequency.n_omega = {max(n_rows, 1)}\n"
                     f"inverse.n_basis = 11\ninverse.k = 5\ninverse.method = {method}\n"
                     f"noise.eps = {eps!r}\n")
            if method == "homogeneous_ft":
                fh.write("medium.c2 = 1.0\n")
        with open(data, "w") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = _main("reconstruct", "--config", cfg_path, "--data", data, "--out", rec)
        assert os.path.exists(rec) == (code == 0)
        if code:
            return
        figures = _figures(out)
        assert all(np.isfinite(figures[k]) for k in ("reg", "residual", "l2_error", "rel")), out
