"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from helmlayer.cli import parse_config_text, run_sweep
from helmlayer.forward import (boundary_sweep, check_radiation_many, fd_oracle, forward_field,
                               interface_traces_many)
from helmlayer.fourier import (data_energy, data_energy_from_sweep,
                               endpoint_amplitude_bound_many, fit_loglog, halfline_ft_many,
                               tail_decay_fit, data_energy_constant)
from helmlayer.greens import green_eval, interface_residuals
from helmlayer.inverse import reconstruct_homogeneous, recon_error
from helmlayer.model import (FrequencyGrid, Medium, SourceSpec, l2_norm_sq,
                             split_source)


def _report(num, ok, detail):
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_medium(rng):
    return Medium(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))


def _random_source(rng):
    width = rng.uniform(0.2, 0.5)
    center = rng.uniform(-0.88 + width / 2, 0.88 - width / 2)
    amp = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return SourceSpec.bump(center - width / 2, center + width / 2, amp)


def test_criterion_1_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)

    worst_appendix = 0.0
    for _ in range(200):
        med = _random_medium(rng)
        y = rng.uniform(-0.95, 0.95)
        if abs(y) < 1e-3:
            continue
        om = rng.uniform(0.1, 20.0)
        worst_appendix = max(worst_appendix, interface_residuals(y, med, om).max)

    worst_recip = 0.0
    count = 0
    while count < 1000:
        med = _random_medium(rng)
        om = rng.uniform(0.1, 20.0)
        x, y = rng.uniform(-0.95, 0.95, 2)
        if min(abs(x), abs(y), abs(x - y)) < 1e-3:
            continue
        worst_recip = max(worst_recip, abs(green_eval(x, y, med, om)
                                           - green_eval(y, x, med, om)))
        count += 1

    worst_rad = 0.0
    for _ in range(100):
        med = _random_medium(rng)
        om = rng.uniform(0.2, 10.0)
        f = _random_source(rng)
        rm, rp = check_radiation_many([(f, med, om)])[0]
        worst_rad = max(worst_rad, rm, rp)

    worst_trace = 0.0
    for _ in range(100):
        med = _random_medium(rng)
        om = rng.uniform(0.2, 10.0)
        f = _random_source(rng)
        worst_trace = max(worst_trace, interface_traces_many([(f, med, om)])[0].max_residual)

    elapsed = time.time() - t0
    ok = (worst_appendix <= 1e-10 and worst_recip <= 1e-10
          and worst_rad <= 1e-10 and worst_trace <= 1e-8 and elapsed <= 30.0)
    _report(1, ok, f"appendix {worst_appendix:.2e}, reciprocity {worst_recip:.2e}, "
                   f"radiation {worst_rad:.2e} (<= 1e-10), traces {worst_trace:.2e} "
                   f"(<= 1e-8), {elapsed:.1f}s (<= 30s)")


def test_criterion_2_cross_solver_oracle():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst_rel = 0.0
    orders = []
    for _ in range(5):
        med = _random_medium(rng)
        om = rng.uniform(1.0, 4.0)
        width = rng.uniform(0.4, 0.9)
        center = rng.uniform(-0.85 + width / 2, 0.85 - width / 2)
        f = SourceSpec.bump(center - width / 2, center + width / 2)
        refs = {x: forward_field(f, med, om, x) for x in (-1.0, 1.0)}
        errs, hs = [], []
        for n in (512, 1024, 2048, 4096):
            x, u = fd_oracle(f, med, om, n)
            err = abs(u[0] - refs[-1.0]) + abs(u[-1] - refs[1.0])
            errs.append(err)
            hs.append(2.0 / n)
        rel = (abs(u[0] - refs[-1.0]) / abs(refs[-1.0])
               + abs(u[-1] - refs[1.0]) / abs(refs[1.0]))
        worst_rel = max(worst_rel, rel)
        orders.append(fit_loglog(hs, errs)[0])
    elapsed = time.time() - t0
    ok = (worst_rel <= 1e-4 and all(1.8 <= o <= 2.2 for o in orders)
          and elapsed <= 60.0)
    _report(2, ok, f"worst rel endpoint gap {worst_rel:.2e} (<= 1e-4), fitted "
                   f"orders {[f'{o:.2f}' for o in orders]} (in [1.8, 2.2]), "
                   f"{elapsed:.1f}s (<= 60s)")


def test_criterion_3_homogeneous_inversion():
    t0 = time.time()
    med = Medium(1.0, 1.0)
    f = SourceSpec.bump(-0.55, 0.55)
    x_grid = np.linspace(-0.9, 0.9, 361)
    norm = np.sqrt(l2_norm_sq(f))
    errs = []
    for K in (15.0, 30.0, 60.0):
        grid = FrequencyGrid.uniform(K, 400)
        data = boundary_sweep(f, med, grid)
        rec = reconstruct_homogeneous(data, med, x_grid)
        errs.append(recon_error(rec, f) / norm)
    elapsed = time.time() - t0
    ok = (errs[-1] <= 5e-2 and errs[0] > errs[1] > errs[2] and elapsed <= 60.0)
    _report(3, ok, f"rel errors vs K in (15, 30, 60): {[f'{e:.3e}' for e in errs]} "
                   f"(final <= 5e-2, strictly decreasing), {elapsed:.1f}s (<= 60s)")


def test_criterion_4_tail_decay_orders():
    t0 = time.time()
    med = Medium(1.0, 1.5)
    s_list = np.geomspace(20.0, 200.0, 12)
    slopes = {}
    for n in (1, 2, 3):
        f = SourceSpec.bspline(0.12, 0.88, n)
        slope, r2 = tail_decay_fit(f, med, n, s_list, 2000.0)
        slopes[n] = slope
    elapsed = time.time() - t0
    ok = all(abs(slopes[n] - (-(2 * n - 1))) <= 0.15 * (2 * n - 1) for n in (1, 2, 3))
    ok = ok and elapsed <= 120.0
    _report(4, ok, f"fitted slopes {[f'{slopes[n]:.3f}' for n in (1, 2, 3)]} vs "
                   f"theory (-1, -3, -5) within 15%, {elapsed:.1f}s (<= 120s)")


def test_criterion_5_amplitude_bounds():
    rng = np.random.default_rng(105)
    worst = -np.inf
    for _ in range(500):
        med = _random_medium(rng)
        om = rng.uniform(0.2, 20.0)
        f = _random_source(rng)
        lm, rm, lp, rp, _, _ = endpoint_amplitude_bound_many([(f, med, om)])[0]
        worst = max(worst, (lm - rm) / max(rm, 1e-300), (lp - rp) / max(rp, 1e-300))
    ok = worst <= 1e-12
    _report(5, ok, f"largest relative violation {worst:.2e} over 500 trials "
                   f"(<= 1e-12 slack)")


def test_criterion_6_data_energy_consistency():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        med = _random_medium(rng)
        f = _random_source(rng)
        s = rng.uniform(2.0, 12.0)
        e1 = data_energy(f, med, s).I.real
        e2 = data_energy_from_sweep(f, med, s).I.real
        worst = max(worst, abs(e1 - e2) / e1)

    # real-axis growth bound |I(s)| <= C s ||f||^2, C stable under refinement
    med = Medium(1.0, 1.5)
    f = SourceSpec.bump(-0.4, 0.6)
    nf = l2_norm_sq(f)
    s_grid = (2.0, 5.0, 10.0, 20.0, 40.0)
    cs = []
    for n_quad in (8, 16):
        cs.append(max(data_energy(f, med, s, n_quad=n_quad).I.real / (s * nf)
                      for s in s_grid))
    drift = abs(cs[0] - cs[1]) / cs[1]
    ok = worst <= 1e-8 and drift <= 0.05
    _report(6, ok, f"route agreement worst {worst:.2e} (<= 1e-8) over 20 draws; "
                   f"growth constant C = {cs[1]:.4f}, refinement drift "
                   f"{drift:.2%} (<= 5%)")


def test_criterion_7_increasing_stability_sweep():
    t0 = time.time()
    cfg = parse_config_text(
        "medium.c1 = 1.0\n"
        "medium.c2 = 1.5\n"
        "frequency.n_omega = 200\n"
        "inverse.n_basis = 161\n"
        "sweep.K_list = 5,10,20,40\n"
        "sweep.eps_list = 0,1e-1,1e-2,1e-3\n"
        "sweep.n_list = 1,2,3\n"
        "sweep.trials = 10\n"
    )
    records = run_sweep(cfg)
    assert all(r.error == "" for r in records)

    def med_err(K=None, eps=None, n=None):
        sel = [r.l2_error for r in records
               if (K is None or r.K == K) and (eps is None or r.eps == eps)
               and (n is None or r.n == n)]
        return float(np.median(sel))

    k_meds = [med_err(K=K, eps=0.0) for K in (5.0, 10.0, 20.0, 40.0)]
    mono_k = all(k_meds[i + 1] <= 1.05 * k_meds[i] for i in range(3))

    e_meds = [med_err(K=40.0, eps=e) for e in (1e-1, 1e-2, 1e-3)]
    mono_e = e_meds[0] >= e_meds[1] >= e_meds[2]

    n_meds = [med_err(K=40.0, eps=1e-2, n=n) for n in (1, 2, 3)]
    mono_n = n_meds[0] > n_meds[1] > n_meds[2]

    elapsed = time.time() - t0
    ok = mono_k and mono_e and mono_n and elapsed <= 600.0
    _report(7, ok,
            f"(a) eps=0 medians vs K {[f'{v:.3f}' for v in k_meds]} "
            f"non-increasing within 5%: {mono_k}; "
            f"(b) K=40 medians vs eps {[f'{v:.3f}' for v in e_meds]} "
            f"ordered: {mono_e}; "
            f"(c) K=40, eps=1e-2 medians vs n {[f'{v:.3f}' for v in n_meds]} "
            f"decreasing: {mono_n}; {elapsed:.0f}s (<= 600s)")


def plancherel_residual(pair, xi_max, n_xi):
    """|  ||f1||^2 + ||f2||^2  -  (1/2pi) int_{-xi_max}^{xi_max} (|fhat1|^2 + |fhat2|^2) |.

    The transform-side integral is a trapezoid rule on n_xi equispaced
    arguments; the tail beyond xi_max is the caller's responsibility.
    """
    if n_xi < 3:
        raise ValueError("need at least 3 transform samples")
    xis = np.linspace(-xi_max, xi_max, n_xi)
    total = 0.0
    for side in ("right", "left"):
        vals = halfline_ft_many(pair, side, xis)
        total += float(np.trapezoid(np.abs(vals) ** 2, xis))
    norms = l2_norm_sq(pair.f1) + l2_norm_sq(pair.f2)
    return abs(norms - total / (2.0 * np.pi))


def test_plancherel_zero_and_smooth():
    zero = split_source(SourceSpec.bump(-0.5, 0.5, amplitude=0.0))
    assert plancherel_residual(zero, 50.0, 501) == 0.0
    pair = split_source(SourceSpec.bump(0.1, 0.9))
    assert plancherel_residual(pair, 200.0, 4001) < 1e-6


def test_plancherel_refinement():
    # the residual converges to the fixed transform-tail value; the
    # quadrature part (distance to that limit) halves or better per doubling
    pair = split_source(SourceSpec.bump(0.1, 0.9))
    limit = plancherel_residual(pair, 60.0, 6401)
    coarse = abs(plancherel_residual(pair, 60.0, 201) - limit)
    fine = abs(plancherel_residual(pair, 60.0, 401) - limit)
    assert fine <= 0.5 * coarse


def test_criterion_8_plancherel_and_energy_constant():
    residuals = []
    for a, b in ((0.1, 0.9), (-0.9, -0.1)):
        pair = split_source(SourceSpec.bump(a, b))
        residuals.append(plancherel_residual(pair, 200.0, 4001))

    med = Medium(1.0, 1.5)

    def sampler(rng):
        a = rng.uniform(-0.6, 0.0)
        return SourceSpec.bump(a, a + rng.uniform(0.3, 0.6),
                               amplitude=rng.uniform(0.5, 2.0))

    c_base, ratios = data_energy_constant(sampler, med, 200.0, 20, seed=108)
    c_doubled, _ = data_energy_constant(sampler, med, 400.0, 20, seed=108)
    drift = abs(c_base - c_doubled) / c_doubled
    ok = (max(residuals) <= 1e-6 and np.isfinite(c_base) and drift <= 0.05)
    _report(8, ok, f"Plancherel residuals {[f'{r:.2e}' for r in residuals]} "
                   f"(<= 1e-6 at xi cut 200); energy constant {c_base:.4f}, "
                   f"cap-doubling drift {drift:.2%} (<= 5%)")
