import numpy as np
import pytest

from helmlayer.greens import (_amplitudes, _green, eval_from_coeffs, green_coeffs_closed,
                              green_coeffs_via_linear_system, green_dx,
                              green_eval, interface_residuals)
from helmlayer.model import Medium


def test_homogeneous_reduction_value():
    # layered correction vanishes for c1 = c2; kernel is i/(2k) e^{i k |x-y|}
    med = Medium(1.0, 1.0)
    got = green_eval(0.5, 0.25, med, np.pi)
    expected = 1j / (2 * np.pi) * np.exp(1j * np.pi * 0.25)
    assert abs(got - expected) < 1e-15


def test_transmitted_branch_value():
    med = Medium(1.0, 2.0)
    got = green_eval(-0.25, 0.5, med, 1.0)
    expected = (1j / 3.0) * np.exp(1j * 1.0)
    assert abs(got - expected) < 1e-15


def test_reciprocity_pair_and_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        med = Medium(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        om = rng.uniform(0.1, 15.0)
        assert abs(green_eval(-0.25, 0.5, med, om) - green_eval(0.5, -0.25, med, om)) < 1e-13
    count = 0
    while count < 200:
        med = Medium(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        om = rng.uniform(0.1, 15.0)
        x, y = rng.uniform(-0.95, 0.95, 2)
        if min(abs(x), abs(y), abs(x - y)) < 1e-3:
            continue
        assert abs(green_eval(x, y, med, om) - green_eval(y, x, med, om)) < 1e-12
        count += 1


def test_green_rejects_bad_arguments():
    med = Medium(1.0, 1.5)
    with pytest.raises(ValueError):
        green_eval(0.5, 0.25, med, 0.0)
    with pytest.raises(ValueError):
        green_eval(0.5, 0.0, med, 1.0)
    with pytest.raises(ValueError):
        green_eval(0.5, 1.0, med, 1.0)
    for omega in (-1.0, np.nan, np.inf, [1.0, 0.0], [2.0, np.nan], np.array([3.0, np.inf])):
        with pytest.raises(ValueError, match="omega"):
            green_eval(0.5, 0.25, med, omega)
        with pytest.raises(ValueError, match="omega"):
            green_dx(0.5, 0.25, med, omega)
    for y in (np.nan, np.inf, [0.25, np.nan]):
        with pytest.raises(ValueError, match="source point"):
            green_eval(0.5, y, med, 1.0)
    for x in (5.0, -1.5, np.nan, [0.5, 1.25]):
        with pytest.raises(ValueError, match="evaluation point"):
            green_eval(x, 0.3, med, 1.0)
        with pytest.raises(ValueError, match="evaluation point"):
            green_dx(x, 0.3, med, 1.0)
    # an array of good frequencies passes, one row per frequency
    assert green_eval([-1.0, 1.0], 0.3, med, np.array([1.0, 2.0, 3.0])).shape == (3, 2)


def test_coeff_example_and_homogeneous_reflection():
    med = Medium(1.0, 2.0)
    c = green_coeffs_via_linear_system(0.5, med, 1.0)
    assert abs(c.D - (1j / 3.0) * np.exp(1j * 0.5)) < 1e-14
    c_h = green_coeffs_via_linear_system(0.5, Medium(1.2, 1.2), 2.0)
    assert abs(c_h.B) < 1e-15


def test_coeffs_match_closed_form_and_branches():
    rng = np.random.default_rng(12)
    for _ in range(100):
        med = Medium(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        om = rng.uniform(0.1, 15.0)
        y = rng.uniform(-0.95, 0.95)
        if abs(y) < 1e-3:
            continue
        cs = green_coeffs_via_linear_system(y, med, om)
        cc = green_coeffs_closed(y, med, om)
        for name in "ABCD":
            assert abs(getattr(cs, name) - getattr(cc, name)) < 1e-12
        xs = rng.uniform(-1.0, 1.0, 10)
        piecewise = eval_from_coeffs(cs, xs, y, med, om)
        assert np.max(np.abs(piecewise - green_eval(xs, y, med, om))) < 1e-12


def test_singular_guard():
    with pytest.raises(np.linalg.LinAlgError):
        green_coeffs_via_linear_system(0.5, Medium(1.0, 1.0), 1e-20)


def test_interface_residuals_battery():
    rng = np.random.default_rng(13)
    for _ in range(200):
        med = Medium(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        om = rng.uniform(0.1, 15.0)
        y = rng.uniform(-0.95, 0.95)
        if abs(y) < 1e-3:
            continue
        assert interface_residuals(y, med, om).max < 1e-12


def test_interface_residuals_homogeneous_exact():
    res = interface_residuals(0.4, Medium(1.3, 1.3), 2.0)
    assert res.cont_at_zero == 0.0
    assert res.dcont_at_zero == 0.0


def test_mirror_system_rederived_independently():
    # oracle: assemble the y < 0 continuity system from scratch and solve
    med = Medium(0.8, 1.7)
    om, y = 2.5, -0.45
    k1, k2 = med.c1 * om, med.c2 * om
    ep, em = np.exp(-1j * k2 * y), np.exp(1j * k2 * y)
    M = np.array([
        [ep, -ep, -em, 0.0],
        [-1j * k2 * ep, 1j * k2 * ep, -1j * k2 * em, 0.0],
        [0.0, 1.0, 1.0, -1.0],
        [0.0, -1j * k2, 1j * k2, -1j * k1],
    ], dtype=complex)
    rhs = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    A, B, C, D = np.linalg.solve(M, rhs)
    c = green_coeffs_via_linear_system(y, med, om)
    assert max(abs(A - c.A), abs(B - c.B), abs(C - c.C), abs(D - c.D)) < 1e-13
    assert interface_residuals(y, med, om).max < 1e-13


def test_scaling_invariance():
    rng = np.random.default_rng(14)
    for _ in range(50):
        med = Medium(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        om = rng.uniform(0.1, 10.0)
        lam = rng.uniform(0.2, 5.0)
        scaled = Medium(med.c1 / lam, med.c2 / lam)
        x, y = rng.uniform(-0.95, 0.95, 2)
        if abs(y) < 1e-3:
            continue
        g1 = green_eval(x, y, med, om)
        g2 = green_eval(x, y, scaled, lam * om)
        assert abs(g1 - g2) <= 1e-12 * max(1.0, abs(g1))


def test_outgoing_form():
    rng = np.random.default_rng(15)
    med = Medium(1.0, 1.6)
    om = 3.0
    k1, k2 = med.c1 * om, med.c2 * om
    y = 0.3
    xs = rng.uniform(0.35, 1.0, 20)
    vals = green_eval(xs, y, med, om) * np.exp(-1j * k1 * xs)
    assert np.max(np.abs(vals - vals[0])) < 1e-14
    xs = rng.uniform(-1.0, -0.01, 20)
    vals = green_eval(xs, y, med, om) * np.exp(1j * k2 * xs)
    assert np.max(np.abs(vals - vals[0])) < 1e-14


def test_homogeneous_collapse_everywhere():
    rng = np.random.default_rng(16)
    for _ in range(100):
        c = rng.uniform(0.3, 3.0)
        med = Medium(c, c)
        om = rng.uniform(0.1, 15.0)
        x, y = rng.uniform(-0.95, 0.95, 2)
        if abs(y) < 1e-3:
            continue
        k = c * om
        free = 1j / (2 * k) * np.exp(1j * k * abs(x - y))
        assert abs(green_eval(x, y, med, om) - free) < 1e-13


def test_derivative_matches_finite_difference():
    med = Medium(0.9, 1.4)
    om, y = 2.2, 0.35
    h = 1e-6
    for x in (-0.6, 0.1, 0.7):
        fd = (green_eval(x + h, y, med, om) - green_eval(x - h, y, med, om)) / (2 * h)
        assert abs(green_dx(x, y, med, om) - fd) < 1e-6


def _green_out_of_place(x, y, medium, omega, deriv=False):
    # the kernel as written before its branch values were formed in place
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    lead = np.shape(omega)
    om = np.asarray(omega, dtype=float)[..., None] if lead else omega
    out = np.empty(lead + (xb.size,), dtype=complex)
    right = yb.ravel() > 0
    for sig, cs, co, own in ((1.0, medium.c1, medium.c2, right),
                             (-1.0, medium.c2, medium.c1, ~right)):
        X, Y = sig * xb.ravel(), sig * yb.ravel()
        ks, ko = cs * om, co * om
        direct_amp, refl_amp, trans_amp = _amplitudes(ks, ko)
        near, far = own & (X >= 0), own & (X < 0)
        if near.any():
            Xn, Yn = X[near], Y[near]
            wave = direct_amp * np.exp(1j * ks * np.abs(Xn - Yn))
            if deriv:
                wave *= np.sign(Xn - Yn)
            wave += refl_amp * np.exp(1j * ks * (Xn + Yn))
            out[..., near] = sig * 1j * ks * wave if deriv else wave
        if far.any():
            Xf, Yf = X[far], Y[far]
            trans = trans_amp * np.exp(1j * (ks * Yf - ko * Xf))
            out[..., far] = -sig * 1j * ko * trans if deriv else trans
    out = out.reshape(lead + xb.shape)
    return out[()] if out.ndim == 0 else out


def test_green_in_place_matches_out_of_place_bits():
    # same elementwise arithmetic, so the same doubles, sign of zero included
    rng = np.random.default_rng(5)
    for _ in range(50):
        med = Medium(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
        y = rng.uniform(-0.99, 0.99, int(rng.integers(1, 300)))
        if rng.uniform() < 0.5:
            y.sort()  # each side's sources then form one contiguous run
        for x in (-1.0, 1.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, len(y))):
            for om in (np.sort(rng.uniform(0.01, 50.0, int(rng.integers(1, 40)))),
                       float(rng.uniform(0.01, 50.0))):
                for deriv in (False, True):
                    got = np.asarray(_green(x, y, med, om, deriv))
                    ref = np.asarray(_green_out_of_place(x, y, med, om, deriv))
                    assert got.shape == ref.shape
                    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
