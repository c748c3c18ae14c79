import warnings

import numpy as np
import pytest

from helmlayer.forward import BoundaryData, boundary_sweep, source_rule
from helmlayer.fourier import (data_energy, data_energy_constant,
                               data_energy_from_sweep, endpoint_amplitude_bound_many,
                               endpoint_data, epsilon_norm, fit_loglog, halfline_ft_many,
                               tail_decay_fit)
from helmlayer.greens import WavenumberRangeError
from helmlayer.model import (FrequencyGrid, Medium, SourceSpec, l2_norm_sq,
                             split_source)
from helmlayer.quadrature import composite_rule


def _pair(spec):
    return split_source(spec)


def test_halfline_ft_trivialities():
    pair = _pair(SourceSpec.bump(-0.8, -0.2))  # nothing on the right
    assert halfline_ft_many(pair, "right", [3.0])[0] == 0.0
    with pytest.raises(ValueError, match="side must be"):
        halfline_ft_many(pair, "up", [3.0])
    f = SourceSpec.bump(0.2, 0.8, amplitude=1.5 - 0.5j)
    pair = _pair(f)
    plain = halfline_ft_many(pair, "right", [0.0])[0]
    x = np.linspace(0.2, 0.8, 200001)
    assert abs(plain - np.trapezoid(f(x), x)) < 1e-10


def test_halfline_ft_brute_force_oracle():
    f = SourceSpec.bump(0.2, 0.8)
    pair = _pair(f)
    xi = 5.0
    x = np.linspace(0.2, 0.8, 1_000_001)
    oracle = np.trapezoid(np.exp(-1j * xi * x) * f(x).real, x)
    assert abs(halfline_ft_many(pair, "right", [xi])[0] - oracle) < 1e-9


def test_halfline_ft_shift_law():
    delta = 0.15
    f = SourceSpec.bump(0.1, 0.5)
    g = SourceSpec.bump(0.1 + delta, 0.5 + delta)
    for xi in (-7.0, 2.0, 11.0):
        a = halfline_ft_many(_pair(f), "right", [xi])[0]
        b = halfline_ft_many(_pair(g), "right", [xi])[0]
        assert abs(b - a * np.exp(-1j * xi * delta)) < 1e-10


def test_halfline_ft_conjugate_symmetry_for_real_source():
    f = SourceSpec.bspline(0.1, 0.7, 2)
    pair = _pair(f)
    for xi in (0.5, 3.0, 12.0):
        assert abs(halfline_ft_many(pair, "right", [-xi])[0]
                   - np.conj(halfline_ft_many(pair, "right", [xi])[0])) < 1e-13


def _longdouble_sum(y, fw, xis, chunk=500):
    """sum_j fw_j exp(-i xi y_j), summed in long double.

    Each phase xi y_j is formed in long double and split into a double p
    and its remainder e, so exp(-i p) (1 - i e) is the term to within
    its own rounding (e is below 1e-13 here, and e^2 is dropped).
    """
    fr, fi = fw.real.astype(np.longdouble), fw.imag.astype(np.longdouble)
    y = y.astype(np.longdouble)
    out = np.empty(len(xis), dtype=complex)
    for i in range(0, len(xis), chunk):
        ph = np.multiply.outer(xis[i:i + chunk].astype(np.longdouble), y)
        p = ph.astype(float)
        z = np.exp(-1j * p) * (1.0 - 1j * (ph - p).astype(float))
        c, s = z.real.astype(np.longdouble), z.imag.astype(np.longdouble)
        out[i:i + chunk] = (c @ fr - s @ fi).astype(float) + 1j * (c @ fi + s @ fr).astype(float)
    return out


def test_halfline_ft_many_band_top_accuracy():
    # the top of a tail-decay band: thousands of panels per side, where an
    # exponential sum that loses phase accuracy shows first
    pair = _pair(SourceSpec.bspline(-0.7, 0.6, 3))
    xis = np.arange(900.0, 1500.0, 0.15)
    got = halfline_ft_many(pair, "left", xis, nodes=8)
    y, w = source_rule(pair.f2, float(np.max(xis)), nodes=8)
    ref = _longdouble_sum(y, w * pair.f2(y), xis)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10


def test_zero_arguments_raise_no_warning():
    # every point of an all-zero argument array is the same, so its
    # panels are one run, found without dividing by max |xi| = 0
    pair = _pair(SourceSpec.bump(-0.4, 0.5, 1.0 - 0.5j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side, src in (("right", pair.f1), ("left", pair.f2)):
            y, w = source_rule(src, 0.0)
            total = np.sum(w * src(y))
            assert abs(halfline_ft_many(pair, side, [0.0])[0] - total) <= 1e-14 * abs(total)
            for zeros in (np.zeros(5), np.zeros((3, 4))):
                got = halfline_ft_many(pair, side, zeros, paired=True)
                assert got.shape == zeros.shape + (2,)
                assert np.all(np.abs(got - [total, np.conj(total)]) <= 1e-14 * abs(total))


def test_data_energy_trivial_and_monotone():
    med = Medium(1.0, 1.5)
    zero = SourceSpec.bump(-0.5, 0.5, amplitude=0.0)
    assert data_energy(zero, med, 4.0).I == 0.0
    f = SourceSpec.bump(-0.4, 0.6)
    e1 = data_energy(f, med, 4.0).I.real
    e2 = data_energy(f, med, 8.0).I.real
    assert e2 >= e1 > 0.0
    with pytest.raises(ValueError):
        data_energy(f, med, -1.0)


def test_data_energy_route_agreement():
    rng = np.random.default_rng(31)
    for _ in range(5):
        med = Medium(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        f = SourceSpec.bump(rng.uniform(-0.7, -0.1), rng.uniform(0.1, 0.7),
                            amplitude=np.exp(1j * rng.uniform(0, 6.3)))
        s = rng.uniform(2.0, 10.0)
        e1 = data_energy(f, med, s).I.real
        e2 = data_energy_from_sweep(f, med, s).I.real
        assert abs(e1 - e2) / e1 < 1e-8


def test_data_energy_continuation_conjugates():
    med = Medium(1.0, 1.5)
    f = SourceSpec.modulated_bump(-0.4, 0.5, 3.0, amplitude=0.8 + 0.4j)
    z = 4.0 + 1.5j
    a = data_energy(f, med, z)
    b = data_energy(f, med, np.conj(z))
    assert abs(a.I - np.conj(b.I)) < 1e-10 * abs(a.I)
    for s in (-1.0 + 0.5j, 0.5j, 0.0):
        with pytest.raises(ValueError, match="Re"):
            data_energy(f, med, s)


def test_data_energy_out_of_range_names_s():
    # far into the sector F and G each overflow, though Re s > 0: a named
    # error, not nan with a RuntimeWarning
    with warnings.catch_warnings(), pytest.raises(ValueError, match=r"s = \(229\.4"):
        warnings.simplefilter("error", RuntimeWarning)
        data_energy(SourceSpec.bump(-0.9, 0.6), Medium(1.0, 3.0), 300 * np.exp(0.7j))


_BAD = [0.0, -2.0, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("call, name", [
    *[(lambda f, med, v=v: data_energy(f, med, v), "band limit s")
      for v in _BAD + [complex(np.nan, 1.0)]],
    *[(lambda f, med, v=v: data_energy_from_sweep(f, med, v), "band limit s")
      for v in _BAD],
    *[(lambda f, med, v=v: data_energy_constant(lambda rng: f, med, v, 1, seed=0),
       "omega_cap") for v in _BAD],
    (lambda f, med: data_energy_constant(lambda rng: f, med, 50.0, 0, seed=0), "trials"),
    *[(lambda f, med, v=v: tail_decay_fit(f, med, 0, [5.0, 10.0, 20.0], v), "omega_cap")
      for v in _BAD],
    *[(lambda f, med, v=v: tail_decay_fit(f, med, 0, [5.0, 10.0, v], 200.0), "s_list")
      for v in (np.inf, np.nan)],
    # a difference that overflows
    (lambda f, med: tail_decay_fit(f, med, 0, [-1.7e308, 1.7e308, 20.0], 200.0), "s_list"),
])
def test_bad_band_limits_raise_named_value_errors(call, name):
    # refused before any arithmetic on them can warn
    with warnings.catch_warnings(), pytest.raises(ValueError, match=name):
        warnings.simplefilter("error", RuntimeWarning)
        call(SourceSpec.bump(-0.4, 0.6), Medium(1.0, 1.5))


def test_data_energy_analytic_sector_envelope():
    # |I(s)| <= C |s| e^{4 c_max |Im s|} ||f||^2 over the quarter sector,
    # with C fitted once and stable under quadrature refinement
    med = Medium(1.0, 1.5)
    rng = np.random.default_rng(32)
    ratios_coarse, ratios_fine = [], []
    for _ in range(200):
        a = rng.uniform(-0.7, 0.2)
        f = SourceSpec.bump(a, a + rng.uniform(0.2, 0.6),
                            amplitude=rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 6.3)))
        r = rng.uniform(0.5, 6.0)
        th = rng.uniform(-np.pi / 4 + 0.05, np.pi / 4 - 0.05)
        s = r * np.exp(1j * th)
        env = abs(s) * np.exp(4 * med.c_max * abs(s.imag)) * l2_norm_sq(f)
        ratios_coarse.append(abs(data_energy(f, med, s, n_quad=8).I) / env)
        ratios_fine.append(abs(data_energy(f, med, s, n_quad=16).I) / env)
    c_coarse, c_fine = max(ratios_coarse), max(ratios_fine)
    assert np.isfinite(c_coarse)
    assert abs(c_coarse - c_fine) / c_fine < 0.05


def test_epsilon_norm_scaling_and_refinement():
    med = Medium(1.0, 1.5)
    zero = BoundaryData(FrequencyGrid.uniform(5.0, 10),
                        np.zeros(10, complex), np.zeros(10, complex))
    assert epsilon_norm(zero) == 0.0

    f = SourceSpec.bump(-0.4, 0.6)
    grid = FrequencyGrid.uniform(10.0, 50)
    data = boundary_sweep(f, med, grid)
    scaled = boundary_sweep(SourceSpec.bump(-0.4, 0.6, amplitude=-2.0j), med, grid)
    assert abs(epsilon_norm(scaled) - 2.0 * epsilon_norm(data)) < 1e-12

    # second-order grid refinement at fixed floor (Richardson against a fine grid)
    floor = 0.25
    def eps_at(n):
        g = FrequencyGrid.uniform(10.0, n, floor)
        return epsilon_norm(boundary_sweep(f, med, g))
    ref = eps_at(1600)
    errs = [abs(eps_at(n) - ref) for n in (50, 100, 200)]
    order = fit_loglog([1.0 / 50, 1.0 / 100, 1.0 / 200], errs)[0]
    assert 1.7 < order < 2.3


def test_tail_decay_orders_and_oracle(tmp_path):
    med = Medium(1.0, 1.5)
    slopes = {}
    s_list = np.geomspace(10.0, 60.0, 8)
    for n in (1, 2):
        f = SourceSpec.bspline(0.15, 0.85, n)
        slope, r2 = tail_decay_fit(f, med, n, s_list, 600.0,
                                   csv_path=tmp_path / f"tail{n}.csv")
        slopes[n] = slope
        assert r2 > 0.95
    assert abs(slopes[1] - (-1.0)) < 0.35
    assert abs(slopes[2] - (-3.0)) < 0.8
    assert slopes[2] < slopes[1]
    assert (tmp_path / "tail1.csv").read_text().splitlines()[0] == "s,T,logs,logT"

    # independent oracle: the forward solver's endpoint values on the
    # same Gauss rule in omega, summed from each s_k on (at a cap of 150
    # the two sweeps take about a second; at 600, about twenty)
    cap = 150.0
    om, w = composite_rule(s_list[0], cap, s_list[1:], 4.0 * med.c_max, nodes=8)
    for n in (1, 2):
        f = SourceSpec.bspline(0.15, 0.85, n)
        tail_decay_fit(f, med, n, s_list, cap, csv_path=tmp_path / "oracle.csv")
        T = np.loadtxt(tmp_path / "oracle.csv", delimiter=",", skiprows=1)[:, 1]
        data = boundary_sweep(f, med, FrequencyGrid(om, cap))
        terms = w * om ** 2 * (np.abs(data.u_minus) ** 2 + np.abs(data.u_plus) ** 2)
        oracle = np.array([np.sum(terms[om > s]) for s in s_list])
        assert np.max(np.abs(T - oracle) / oracle) <= 1e-10


def test_tail_decay_smooth_source_beats_any_order():
    # super-algebraic decay: the local slope keeps steepening with s
    med = Medium(1.0, 1.5)
    f = SourceSpec.bump(0.15, 0.85)
    slope, _ = tail_decay_fit(f, med, 0, np.geomspace(100.0, 300.0, 6), 1500.0)
    assert slope < -7.0


def test_tail_decay_validation():
    med = Medium(1.0, 1.5)
    f = SourceSpec.bspline(0.2, 0.8, 2)
    with pytest.raises(ValueError):
        tail_decay_fit(f, med, 3, np.array([5.0, 10.0, 20.0]), 200.0)
    with pytest.raises(ValueError):
        tail_decay_fit(f, med, 2, np.array([5.0, 10.0, 20.0]), 25.0)
    # data whose squares underflow leave a zero tail
    tiny = SourceSpec.bspline(0.2, 0.8, 2, amplitude=1e-200)
    with pytest.raises(ValueError, match="tail integral degenerate"):
        tail_decay_fit(tiny, med, 2, np.array([5.0, 10.0, 20.0]), 200.0)


def test_amplitude_bound_zero_and_random():
    med = Medium(1.0, 1.5)
    zero = SourceSpec.bump(-0.5, 0.5, amplitude=0.0)
    assert tuple(endpoint_amplitude_bound_many([(zero, med, 2.0)])[0]) == (0.0,) * 6
    rng = np.random.default_rng(33)
    for _ in range(100):
        med = Medium(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        om = rng.uniform(0.2, 15.0)
        a = rng.uniform(-0.8, 0.3)
        f = SourceSpec.bump(a, a + rng.uniform(0.2, 0.6),
                            amplitude=np.exp(1j * rng.uniform(0, 6.3)))
        lm, rm, lp, rp, _, _ = endpoint_amplitude_bound_many([(f, med, om)])[0]
        assert lm <= rm * (1 + 1e-12) + 1e-300
        assert lp <= rp * (1 + 1e-12) + 1e-300


def test_amplitude_bound_phase_alignment():
    # homogeneous + one-sided: a single surviving term, bound is tight
    med = Medium(1.0, 1.0)
    f = SourceSpec.bump(0.2, 0.8)
    for om in np.linspace(0.5, 12.0, 12):
        lm, rm, lp, rp, _, _ = endpoint_amplitude_bound_many([(f, med, om)])[0]
        assert lp == pytest.approx(rp, rel=1e-10)
        assert lm == pytest.approx(rm, rel=1e-10)
    # layered + one-sided: two surviving terms on the plus side, ratio in (0, 1]
    med = Medium(1.0, 1.7)
    ratios = []
    for om in np.linspace(0.5, 12.0, 40):
        _, _, lp, rp, _, _ = endpoint_amplitude_bound_many([(f, med, om)])[0]
        ratios.append(lp / rp)
    ratios = np.asarray(ratios)
    assert np.all(ratios <= 1 + 1e-12) and np.all(ratios > 0)
    assert ratios.min() < 0.999  # phases genuinely disagree somewhere


def test_data_energy_constant_homogeneous_value(tmp_path):
    # derived closed form: for band-concentrated f in a homogeneous medium
    # ||f||^2 / int_0^inf omega^2(|u(-1)|^2+|u(1)|^2) = 2 c^3 / pi
    c = 1.0
    med = Medium(c, c)

    def sampler(rng):
        a = rng.uniform(-0.6, 0.0)
        return SourceSpec.bump(a, a + rng.uniform(0.3, 0.6))

    const, ratios = data_energy_constant(sampler, med, 200.0, 5, seed=5,
                                         csv_path=tmp_path / "ratios.csv")
    theory = 2.0 * c ** 3 / np.pi
    for r in ratios:
        assert abs(r - theory) / theory < 0.1
    assert (tmp_path / "ratios.csv").read_text().splitlines()[0] == "trial,ratio"


def test_data_energy_constant_cap_stability_and_collapse():
    med = Medium(1.0, 1.5)

    def sampler(rng):
        a = rng.uniform(-0.6, 0.0)
        return SourceSpec.bump(a, a + rng.uniform(0.3, 0.6))

    c1, _ = data_energy_constant(sampler, med, 150.0, 6, seed=6)
    c2, _ = data_energy_constant(sampler, med, 300.0, 6, seed=6)
    assert abs(c1 - c2) / c2 < 0.05

    f = SourceSpec.bump(0.1, 0.6)
    const, ratios = data_energy_constant(lambda rng: f, med, 150.0, 1, seed=1)
    direct = l2_norm_sq(f) / data_energy(f, med, 150.0, n_quad=8).I.real
    assert const == ratios[0]
    assert abs(const - direct) / direct < 1e-12
    # a draw whose norm and data energy underflow has no ratio
    tiny = SourceSpec.bump(0.1, 0.6, amplitude=1e-200)
    with pytest.raises(ZeroDivisionError, match="near-zero source draw"):
        data_energy_constant(lambda rng: tiny, med, 150.0, 1, seed=1)


def test_fit_loglog_slope_examples():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_loglog(xs, xs ** 2)[0] == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog(xs, np.full(4, 3.7))[0] == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(34)
    xs = np.geomspace(1.0, 100.0, 40)
    ys = xs ** -3.0 * np.exp(0.01 * rng.standard_normal(40))
    assert abs(fit_loglog(xs, ys)[0] + 3.0) < 0.1
    with pytest.raises(ValueError):
        fit_loglog([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_loglog([1.0, 2.0], [1.0, 2.0])


def test_wavenumbers_out_of_range_are_refused():
    # where the layer amplitudes leave the double range, both endpoint
    # routes refuse the medium and grid; at c = 1e160 the endpoint
    # representation's reflected rows overflowed to 0 and its data sat 85%
    # off the kernel quadrature's, without a warning
    f = SourceSpec.bspline(0.1, 0.8, 2)
    for c in (1e-160, 1e150, 1e160):
        medium, grid = Medium(c, 3.0 * c), FrequencyGrid.uniform(4.0 / c, 8)
        if c == 1e150:
            ref, got = boundary_sweep(f, medium, grid), endpoint_data(f, medium, grid)
            assert np.max(np.abs(got.u_plus - ref.u_plus)) < 1e-14 * np.max(np.abs(ref.u_plus))
            continue
        with pytest.raises(WavenumberRangeError):
            endpoint_data(f, medium, grid)
    with pytest.raises(WavenumberRangeError, match="omega from 5e-159 to 1e-157"):
        boundary_sweep(f, Medium(1.0, 1.5), FrequencyGrid.uniform(1e-157, 20))
