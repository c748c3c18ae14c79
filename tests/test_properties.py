"""Property tests of the layered amplitudes, the half-line transforms,
the batched field and amplitude-bound routes, the noise model, the
discrepancy rule, the B-spline source and the config and data-file
round trips, over media, frequencies, sources, noise levels and seeds
drawn by hypothesis."""

import dataclasses
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helmlayer.cli import (METHODS, ConfigError, ExperimentRecord, RunConfig,
                           parse_config_text, read_sweep_csv, serialize_config,
                           write_sweep_csv)
from helmlayer.forward import (BoundaryData, _read_csv, boundary_sweep, check_radiation,
                               check_radiation_many, forward_field, forward_field_dx,
                               interface_traces, interface_traces_many,
                               read_boundary_csv, source_rule, write_boundary_csv)
from helmlayer.fourier import (_endpoint_amplitudes, data_energy,
                               endpoint_amplitude_bound, endpoint_amplitude_bound_many,
                               epsilon_norm, halfline_ft_many, write_ratio_csv,
                               write_tail_csv)
from helmlayer.greens import (_endpoint_rows, eval_from_coeffs,
                              green_coeffs_via_linear_system, green_dx,
                              green_eval, interface_residuals)
from helmlayer.inverse import (_tikhonov_residuals, add_noise, assemble_operator,
                               morozov_lambda, reconstruct_tikhonov)
from helmlayer.model import (FrequencyGrid, Medium, SourceSpec, _bspline_basis,
                             split_source)
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
def placed_sources(draw):
    # across the interface, wholly on one side (the other side empty), or
    # ending on the interface itself
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
        return SourceSpec.bspline(a, b, draw(st.integers(1, 3)), amp)
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
        source_mod_freq=draw(finite), source_amp=complex(draw(finite), draw(finite)),
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
        got = read_boundary_csv(path)
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


@settings(max_examples=60, deadline=None)
@given(media, sources(), st.floats(0.2, 10.0))
def test_batched_fields_match_per_point_fields(medium, f, omega):
    # check_radiation and interface_traces take both kernels over their
    # point set from one rule; the rule and the sums are those of the
    # per-point route, so every bit agrees
    k1, k2 = medium.c1 * omega, medium.c2 * omega
    um, up = (forward_field(f, medium, omega, x) for x in (-1.0, 1.0))
    dum, dup = (forward_field_dx(f, medium, omega, x) for x in (-1.0, 1.0))
    assert check_radiation(f, medium, omega) == (abs(dum + 1j * k2 * um),
                                                 abs(dup - 1j * k1 * up))
    rep = interface_traces(f, medium, omega)
    assert rep.u0 == forward_field(f, medium, omega, 0.0)
    assert rep.du0 == forward_field_dx(f, medium, omega, 0.0)


@settings(max_examples=60, deadline=None)
@given(media, sources(), st.floats(0.2, 20.0))
def test_amplitude_bound_terms_match_their_own_routes(medium, f, omega):
    lm, rm, lp, rp, sm, sp = endpoint_amplitude_bound(f, medium, omega)
    # lhs against a one-frequency boundary_sweep: the same rule and
    # kernel, summed per draw instead of by the map's product
    data = boundary_sweep(f, medium, FrequencyGrid(np.array([omega]), omega))
    assert np.sqrt(lm) == pytest.approx(omega * abs(data.u_minus[0]), rel=1e-13, abs=1e-13 * sm)
    assert np.sqrt(lp) == pytest.approx(omega * abs(data.u_plus[0]), rel=1e-13, abs=1e-13 * sp)
    # rhs and the scale against each half's own rules: the transforms at
    # the side's rate, the L1 norms at rate 0
    pair = split_source(f)
    rhs, scale = {"minus": 0.0, "plus": 0.0}, {"minus": 0.0, "plus": 0.0}
    for half in (pair.f1, pair.f2):
        y, w = source_rule(half, 0.0)
        l1 = float(np.sum(w * np.abs(half(y))))
        for e, coeff, side, rate, _ in _endpoint_rows(medium):
            if side == half.side:
                rhs[e] += abs(coeff) * abs(halfline_ft_many(pair, side, [-rate * omega])[0])
                scale[e] += abs(coeff) * l1
    assert sm == pytest.approx(scale["minus"], rel=1e-13)
    assert sp == pytest.approx(scale["plus"], rel=1e-13)
    assert np.sqrt(rm) == pytest.approx(rhs["minus"], rel=1e-13, abs=1e-13 * sm)
    assert np.sqrt(rp) == pytest.approx(rhs["plus"], rel=1e-13, abs=1e-13 * sp)


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
    endpoint_amplitude_bound(f, medium, 7.5)
    assert len(calls) == 1
    check_radiation(f, medium, 7.5)
    assert len(calls) == 2
