import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmlayer.cli import RunConfig, build_grid
from helmlayer.forward import BoundaryData, boundary_sweep
from helmlayer.fourier import epsilon_norm
from helmlayer.inverse import (ForwardOperator, _filtered_solve, _project,
                               _tikhonov_residuals, add_noise, assemble_operator, morozov_lambda,
                               recon_error, reconstruct_homogeneous,
                               reconstruct_tikhonov, reconstruct_tsvd)
from helmlayer.model import FrequencyGrid, Medium, SourceSpec, l2_norm_sq


MED = Medium(1.0, 1.5)


def _operator(K=20.0, n_omega=80, n_basis=81, support=(-0.9, 0.9)):
    grid = FrequencyGrid.uniform(K, n_omega)
    return assemble_operator(MED, grid, n_basis, support)


def _gridded_bump(op, a=-0.5, b=0.6, amplitude=1.0 + 0.4j):
    f = SourceSpec.bump(a, b, amplitude)
    return f(op.basis_x)


def test_operator_apply_matches_sweep_of_gridded_source():
    op = _operator()
    coeffs = _gridded_bump(op)
    gridded = op.grid_source(coeffs)
    direct = boundary_sweep(gridded, MED, op.grid)
    via_op = op.boundary_data(coeffs)
    scale = np.max(np.abs(direct.u_minus))
    assert np.max(np.abs(via_op.u_minus - direct.u_minus)) / scale < 1e-6
    assert np.max(np.abs(via_op.u_plus - direct.u_plus)) / scale < 1e-6


def test_operator_zero_and_validation():
    op = _operator()
    assert np.all(op.apply(np.zeros(op.n_basis)) == 0.0)
    grid = FrequencyGrid.uniform(5.0, 10)
    with pytest.raises(ValueError):
        assemble_operator(MED, grid, 4, (-0.5, 0.5))
    with pytest.raises(ValueError):
        assemble_operator(MED, grid, 20, (-1.0, 0.5))


def test_operator_basis_refinement_second_order():
    f = SourceSpec.bump(-0.5, 0.6)
    grid = FrequencyGrid.uniform(10.0, 40)
    ref = boundary_sweep(f, MED, grid)
    stacked_ref = np.concatenate([ref.u_minus, ref.u_plus])
    gaps, hs = [], []
    for m in (41, 81, 161):
        op = assemble_operator(MED, grid, m, (-0.9, 0.9))
        pred = op.apply(f(op.basis_x)) / op.row_weights
        gaps.append(np.max(np.abs(pred - stacked_ref)))
        hs.append(1.8 / (m + 1))
    order = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
    assert 1.7 < order < 2.3


def test_calibration_identity():
    # the weighted data-space norm of A c equals the discrete data norm of
    # the boundary data of the gridded source
    op = _operator()
    rng = np.random.default_rng(41)
    coeffs = rng.standard_normal(op.n_basis) + 1j * rng.standard_normal(op.n_basis)
    lhs = np.linalg.norm(op.apply(coeffs))
    rhs = epsilon_norm(op.boundary_data(coeffs))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
    data = boundary_sweep(op.grid_source(coeffs), MED, op.grid)
    assert abs(lhs - epsilon_norm(data)) <= 1e-6 * max(1.0, rhs)


def test_add_noise_calibration_and_determinism():
    f = SourceSpec.bump(-0.4, 0.5)
    grid = FrequencyGrid.uniform(10.0, 50)
    data = boundary_sweep(f, MED, grid)
    assert add_noise(data, 0.0, 1) is data
    for eps in (1e-1, 1e-3, 1e-6):
        noisy = add_noise(data, eps, 42)
        pert = BoundaryData(grid, noisy.u_minus - data.u_minus,
                            noisy.u_plus - data.u_plus)
        assert abs(epsilon_norm(pert) - eps) < 1e-12 * max(1.0, eps)
    a = add_noise(data, 1e-2, 7)
    b = add_noise(data, 1e-2, 7)
    c = add_noise(data, 1e-2, 8)
    assert np.array_equal(a.u_minus, b.u_minus) and np.array_equal(a.u_plus, b.u_plus)
    assert not np.array_equal(a.u_minus, c.u_minus)
    assert abs(epsilon_norm(BoundaryData(grid, a.u_minus - data.u_minus,
                                         a.u_plus - data.u_plus))
               - epsilon_norm(BoundaryData(grid, c.u_minus - data.u_minus,
                                           c.u_plus - data.u_plus))) < 1e-12
    with pytest.raises(ValueError):
        add_noise(data, -1.0, 1)


def test_tikhonov_warns_on_ill_conditioning():
    op = _operator()  # cond(A) ~ 1e16 at K = 20 with 81 hats
    zero = BoundaryData(op.grid, np.zeros(len(op.grid), complex),
                        np.zeros(len(op.grid), complex))
    with pytest.warns(RuntimeWarning, match="conditioned"):
        reconstruct_tikhonov(op, zero, 1e-12)
    with pytest.warns(RuntimeWarning, match="rank deficiency"):
        reconstruct_tsvd(op, zero, op.n_basis)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tikhonov_zero_data_and_lambda_sweep():
    op = _operator()
    zero = BoundaryData(op.grid, np.zeros(len(op.grid), complex),
                        np.zeros(len(op.grid), complex))
    res = reconstruct_tikhonov(op, zero, 1e-6)
    assert np.all(res.f_est.samples == 0.0)

    f = SourceSpec.bump(-0.45, 0.55)
    truth = op.grid_source(f(op.basis_x))
    data = op.boundary_data(f(op.basis_x))  # in-basis data: consistent system
    _, S, _ = op.svd()
    errs = []
    for lam in S[0] * np.array([1e-1, 1e-3, 1e-5, 1e-7, 1e-9]):
        rec = reconstruct_tikhonov(op, data, lam)
        errs.append(recon_error(rec, truth))
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(len(errs) - 1))
    assert errs[-1] <= errs[-2] * 1.1  # plateau at discretization level


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tikhonov_overregularized_collapse():
    op = _operator()
    f = SourceSpec.bump(-0.45, 0.55)
    data = op.boundary_data(f(op.basis_x))
    U, S, Vh = op.svd()
    lsq = (Vh.conj().T * (1.0 / S)) @ (U.conj().T @ op.weighted_data(data))
    rec = reconstruct_tikhonov(op, data, 1e3 * S[0])
    big = np.linalg.norm(rec.f_est.samples[1:-1])
    assert big <= 1e-3 * np.linalg.norm(lsq)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tikhonov_monotone_ladder():
    op = _operator()
    f = SourceSpec.bump(-0.45, 0.55)
    data = add_noise(op.boundary_data(f(op.basis_x)), 1e-3, 3)
    _, S, _ = op.svd()
    lams = S[0] * np.logspace(-8, 0, 10)
    norms, residuals = [], []
    for lam in lams:
        rec = reconstruct_tikhonov(op, data, lam)
        norms.append(np.linalg.norm(rec.f_est.samples))
        residuals.append(rec.residual)
    assert all(norms[i + 1] <= norms[i] * (1 + 1e-10) for i in range(9))
    assert all(residuals[i + 1] >= residuals[i] * (1 - 1e-10) for i in range(9))


def test_tsvd_full_rank_matches_least_squares():
    # wide band + modest basis keeps the operator numerically full rank
    op = _operator(K=60.0, n_omega=200, n_basis=41, support=(-0.8, 0.8))
    f = SourceSpec.bump(-0.45, 0.55)
    data = op.boundary_data(f(op.basis_x))
    rec = reconstruct_tsvd(op, data, op.n_basis)
    lsq, *_ = np.linalg.lstsq(op.matrix, op.weighted_data(data), rcond=None)
    assert np.max(np.abs(rec.f_est.samples[1:-1] - lsq)) < 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tsvd_rank_one_and_semiconvergence():
    op = _operator()
    f = SourceSpec.bump(-0.45, 0.55)
    data = op.boundary_data(f(op.basis_x))
    rec1 = reconstruct_tsvd(op, data, 1)
    _, _, Vh = op.svd()
    v = Vh[0].conj()
    coeffs = rec1.f_est.samples[1:-1]
    # rank-one image: coefficients proportional to the leading right vector
    inner = np.vdot(v, coeffs)
    assert np.linalg.norm(coeffs - inner * v) < 1e-12 * max(1.0, np.linalg.norm(coeffs))

    truth = op.grid_source(f(op.basis_x))
    noisy = add_noise(op.boundary_data(f(op.basis_x)), 3e-2, 11)
    ks = [1, 3, 6, 10, 16, 24, 40, 60, 81]
    errs = [recon_error(reconstruct_tsvd(op, noisy, k), truth) for k in ks]
    best = int(np.argmin(errs))
    assert 0 < best < len(ks) - 1
    assert errs[0] > errs[best] and errs[-1] > errs[best]
    with pytest.raises(ValueError):
        reconstruct_tsvd(op, noisy, 0)


def test_homogeneous_reconstruction():
    med = Medium(1.0, 1.0)
    f = SourceSpec.bump(-0.55, 0.55)
    x_grid = np.linspace(-0.9, 0.9, 301)
    errs = []
    for K in (30.0, 60.0):
        grid = FrequencyGrid.uniform(K, 400)
        data = boundary_sweep(f, med, grid)
        rec = reconstruct_homogeneous(data, med, x_grid)
        errs.append(recon_error(rec, f) / np.sqrt(l2_norm_sq(f)))
    assert errs[1] < errs[0]
    assert errs[1] < 5e-2

    zero = BoundaryData(grid, np.zeros(400, complex), np.zeros(400, complex))
    rec = reconstruct_homogeneous(zero, med, x_grid)
    assert np.max(np.abs(rec.f_est.samples)) == 0.0

    with pytest.raises(ValueError):
        reconstruct_homogeneous(data, Medium(1.0, 1.5), x_grid)
    with pytest.raises(ValueError):
        reconstruct_homogeneous(data, med, x_grid, omega_floor=1.0)


def test_recon_error_properties():
    op = _operator()
    f = SourceSpec.bump(-0.5, 0.5, amplitude=0.7 - 0.2j)
    exact = op.grid_source(f(op.basis_x))
    assert recon_error(exact, f) < 1e-12
    zero = op.grid_source(np.zeros(op.n_basis))
    x = np.concatenate([[op.support[0]], op.basis_x, [op.support[1]]])
    ref = np.sqrt(np.trapezoid(np.abs(f(x)) ** 2, x))
    assert recon_error(zero, f) == pytest.approx(ref, abs=1e-12)

    rng = np.random.default_rng(44)
    for _ in range(10):
        u = op.grid_source(rng.standard_normal(op.n_basis))
        v = rng.standard_normal(op.n_basis)
        w = rng.standard_normal(op.n_basis)
        d_uv = recon_error(u, op.grid_source(v))
        d_vw = recon_error(op.grid_source(v), op.grid_source(w))
        d_uw = recon_error(u, op.grid_source(w))
        assert d_uw <= d_uv + d_vw + 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_morozov_picks_discrepancy_level():
    op = _operator()
    f = SourceSpec.bump(-0.45, 0.55)
    eps = 1e-2
    data = add_noise(op.boundary_data(f(op.basis_x)), eps, 5)
    lam = morozov_lambda(op, data, eps)
    rec = reconstruct_tikhonov(op, data, lam)
    assert rec.residual <= 1.1 * eps
    _, S, _ = op.svd()
    finer = reconstruct_tikhonov(op, data, lam / 10.0)
    assert finer.residual <= rec.residual


def test_layered_recovery_sanity():
    # one-sided source in a genuinely layered medium, noiseless data
    f = SourceSpec.bump(0.15, 0.85)
    grid = FrequencyGrid.uniform(60.0, 400)
    op = assemble_operator(MED, grid, 161, (0.05, 0.95))
    data = boundary_sweep(f, MED, grid)
    rec = reconstruct_tikhonov(op, data, 1e-6)
    rel = recon_error(rec, f) / np.sqrt(l2_norm_sq(f))
    assert rel <= 5e-2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_and_solve_project_the_data_once(monkeypatch):
    # the discrepancy scan and the Tikhonov solve after it read one
    # projection of their data, and new data is projected afresh; the
    # solve is the one an operator that projects every time gives
    op, fresh = _operator(), _operator()
    clean = op.boundary_data(_gridded_bump(op))
    seen = []
    weighted_data = ForwardOperator.weighted_data

    def counted(self, data):
        seen.append((self, data))
        return weighted_data(self, data)

    monkeypatch.setattr(ForwardOperator, "weighted_data", counted)
    for seed in (1, 2, 2):
        data = add_noise(clean, 1e-3, seed)
        lam = morozov_lambda(op, data, 1e-3)
        rec = reconstruct_tikhonov(op, data, lam)
        assert [d for o, d in seen if o is op][-1] is data
        fresh._projection = None
        assert lam == morozov_lambda(fresh, data, 1e-3)
        fresh._projection = None
        ref = reconstruct_tikhonov(fresh, data, lam)
        assert np.array_equal(_bits(rec.f_est.samples), _bits(ref.f_est.samples))
        assert rec.residual == ref.residual
    assert sum(o is op for o, _ in seen) == 3


def _bits(a):
    return np.asarray(a).view(np.int64)


def _check_projection_bits():
    # the default and the sweep operators; U^H d formed as before, by
    # copying U, is the reference
    cfg = RunConfig()
    pad = 0.02 * (cfg.sweep_support_b - cfg.sweep_support_a)
    medium = Medium(cfg.c1, cfg.c2)
    ops = [assemble_operator(medium, build_grid(cfg), cfg.n_basis,
                             (cfg.support_a, cfg.support_b)),
           assemble_operator(medium, build_grid(cfg, K=40.0), cfg.n_basis,
                             (cfg.sweep_support_a - pad, cfg.sweep_support_b + pad))]
    rng = np.random.default_rng(8)
    for op in ops:
        U, S, Vh = op.svd()
        n = len(op.grid)
        ladder = S[0] * np.logspace(-8.0, 0.0, 25)
        for _ in range(20):
            um, up = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) * 1e-3
            data = BoundaryData(op.grid, um, up)
            d = op.weighted_data(data)
            beta = U.conj().T @ d
            assert np.array_equal(_bits(_project(U, d)), _bits(beta))
            filt = S / (S ** 2 + rng.uniform(1e-6, 1.0) ** 2)
            coeffs, residual = _filtered_solve(op, data, filt)
            ref = (Vh.conj().T * filt) @ beta
            assert np.array_equal(_bits(coeffs), _bits(ref))
            assert residual == float(np.linalg.norm(op.matrix @ ref - d))
            perp = np.linalg.norm(d - U @ beta) ** 2
            lam2 = ladder[:, None] ** 2
            res = np.sqrt(np.sum(np.abs(lam2 / (S ** 2 + lam2) * beta) ** 2, axis=1) + perp)
            assert np.array_equal(_bits(_tikhonov_residuals(op, data, ladder)), _bits(res))


def test_projection_without_copy_matches_conj_transpose_bits():
    _check_projection_bits()  # under the suite's BLAS threads
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from test_inverse import _check_projection_bits
_check_projection_bits()
print("ok")
"""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(here.parent / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script, str(here)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
