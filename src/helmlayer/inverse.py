"""Reconstruction of the source from multi-frequency endpoint data.

The discretized forward map sends nodal coefficients of a hat-function
basis (supported strictly inside (-1, 1)) to stacked endpoint data,
with rows weighted so the Euclidean data misfit equals the discrete
frequency-weighted data norm.  Regularized inverses: Tikhonov on a
lambda ladder (optionally picked by the discrepancy rule), truncated
SVD, and the exact direct Fourier inversion available when the medium
is homogeneous.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import FrequencyGrid, SourceSpec
from .forward import BoundaryData, _endpoint_map
from .fourier import epsilon_norm, trapezoid_weights
from .quadrature import composite_rule

__all__ = [
    "ForwardOperator",
    "ReconstructionResult",
    "assemble_operator",
    "add_noise",
    "reconstruct_tikhonov",
    "reconstruct_tsvd",
    "reconstruct_homogeneous",
    "recon_error",
    "morozov_lambda",
]


@dataclass
class ForwardOperator:
    """Weighted dense map from hat-basis coefficients to stacked data.

    Row order is all u(-1) rows in grid order, then all u(+1) rows; row r
    is scaled by omega_r * sqrt(trapezoid weight) so that
    ||matrix @ c - weighted data||_2 is the discrete data norm of the
    residual.
    """

    medium: object
    grid: FrequencyGrid
    basis_x: np.ndarray
    support: tuple
    matrix: np.ndarray
    row_weights: np.ndarray

    def __post_init__(self):
        self._svd = None
        self._projection = None

    @property
    def n_basis(self):
        return len(self.basis_x)

    def svd(self):
        if self._svd is None:
            self._svd = np.linalg.svd(self.matrix, full_matrices=False)
        return self._svd

    def apply(self, coeffs):
        """Weighted stacked data of a coefficient vector."""
        return self.matrix @ np.asarray(coeffs, dtype=complex)

    def weighted_data(self, data):
        if len(data.grid) != len(self.grid):
            raise ValueError(
                f"data has {len(data.grid)} frequencies, operator expects {len(self.grid)}"
            )
        return np.concatenate([data.u_minus, data.u_plus]) * self.row_weights

    def _projected(self, data):
        """Weighted data d and its SVD coordinates U^H d, kept for the
        last ``data`` seen (``BoundaryData`` is frozen, its arrays
        read-only), so that a discrepancy scan and the solve after it
        project the data once."""
        last = self._projection
        if last is None or last[0] is not data:
            U = self.svd()[0]
            d = self.weighted_data(data)
            last = self._projection = (data, d, _project(U, d))
        return last[1], last[2]

    def boundary_data(self, coeffs):
        """Unweighted endpoint data predicted for a coefficient vector."""
        v = self.apply(coeffs) / self.row_weights
        n = len(self.grid)
        return BoundaryData(self.grid, v[:n], v[n:])

    def grid_source(self, coeffs):
        """Coefficient vector as a grid source (zero at the support edges)."""
        a, b = self.support
        x = np.concatenate([[a], self.basis_x, [b]])
        vals = np.concatenate([[0.0], np.asarray(coeffs, dtype=complex), [0.0]])
        return SourceSpec.from_grid(x, vals)


def assemble_operator(medium, grid, n_basis, support):
    """Column j is the endpoint sweep of the j-th hat function.

    The hats live on n_basis interior nodes of a uniform partition of
    ``support``; integration is per cell (hat pieces are linear), six
    Gauss nodes a panel, with the cell that holds the interface split at
    x = 0, where the kernel has a kink, and with panel refinement when a
    cell spans more than ~2 radians of phase at the top frequency.
    """
    a, b = float(support[0]), float(support[1])
    if not (-1.0 < a < b < 1.0):
        raise ValueError(f"basis support [{a}, {b}] must lie strictly inside (-1, 1)")
    if n_basis < 8:
        raise ValueError("need at least 8 basis functions")
    edges = np.linspace(a, b, n_basis + 2)
    nodes_x = edges[1:-1]
    h = edges[1] - edges[0]
    rate = medium.c_max * float(grid.omegas[-1])
    y, w = composite_rule(a, b, [*nodes_x, 0.0], rate, base_panels=1, nodes=6)
    # hat values at the quadrature nodes, scaled by the weights
    H = np.clip(1.0 - np.abs((y[:, None] - nodes_x[None, :]) / h), 0.0, None) * w[:, None]
    om = grid.omegas
    A_minus, A_plus = _endpoint_map(om, y, H, medium)
    wr = om * np.sqrt(trapezoid_weights(om))
    row_weights = np.concatenate([wr, wr])
    matrix = np.vstack([A_minus, A_plus]) * row_weights[:, None]
    return ForwardOperator(medium, grid, nodes_x, (a, b), matrix, row_weights)


def add_noise(data, eps_target, seed):
    """Complex Gaussian perturbation rescaled so its own discrete data
    norm equals eps_target exactly; deterministic per seed."""
    if eps_target < 0:
        raise ValueError("noise level must be non-negative")
    if eps_target == 0:
        return data
    rng = np.random.default_rng(seed)
    n = len(data.grid)
    pert_m = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pert_p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    raw = epsilon_norm(BoundaryData(data.grid, pert_m, pert_p))
    scale = eps_target / raw
    return BoundaryData(data.grid, data.u_minus + scale * pert_m,
                        data.u_plus + scale * pert_p)


@dataclass
class ReconstructionResult:
    """A gridded estimate plus the misfit it achieves."""

    f_est: SourceSpec
    method: str
    reg_param: float
    residual: float
    l2_error: float | None = None


def _project(U, d):
    """U^H d, formed as conj(U^T conj(d)) so that U is not copied.  Each
    product is the one of U^H d up to an exact negation, and U^T and U^H
    take the same BLAS path, so the doubles are those of U.conj().T @ d."""
    return (U.T @ d.conj()).conj()


def _filtered_solve(op, data, filt):
    """Coefficients V diag(filt) U^H d and their data misfit; ``filt``
    holds one filter value per singular value."""
    U, S, Vh = op.svd()
    d, beta = op._projected(data)
    coeffs = (Vh.conj().T * filt) @ beta
    residual = float(np.linalg.norm(op.matrix @ coeffs - d))
    return coeffs, residual


def reconstruct_tikhonov(op, data, lam):
    """Minimize ||A c - d||^2 + lam^2 ||c||^2 through the SVD filter."""
    if lam <= 0:
        raise ValueError("regularization parameter must be positive")
    _, S, _ = op.svd()
    cond = (S[0] ** 2 + lam ** 2) / (S[-1] ** 2 + lam ** 2)
    if cond > 1e12:
        warnings.warn(
            f"regularized normal equations badly conditioned (estimate {cond:.2e})",
            RuntimeWarning, stacklevel=2,
        )
    coeffs, residual = _filtered_solve(op, data, S / (S ** 2 + lam ** 2))
    return ReconstructionResult(op.grid_source(coeffs), "tikhonov", float(lam), residual)


def reconstruct_tsvd(op, data, k):
    """Invert on the span of the top-k singular triples."""
    U, S, Vh = op.svd()
    if not 1 <= k <= len(S):
        raise ValueError(f"rank k must be in [1, {len(S)}], got {k}")
    if S[k - 1] / S[0] < 1e-14:
        warnings.warn(f"singular value {k} is at numerical rank deficiency",
                      RuntimeWarning, stacklevel=2)
    filt = np.zeros(len(S))
    filt[:k] = 1.0 / S[:k]
    coeffs, residual = _filtered_solve(op, data, filt)
    return ReconstructionResult(op.grid_source(coeffs), "tsvd", float(k), residual)


def _tikhonov_residuals(op, data, ladder):
    """Tikhonov residual ||A c_lam - d|| at every lam of ``ladder``.

    With A = U diag(S) V^H, beta = U^H d and perp = ||d - U beta||^2,
    ||A c_lam - d||^2 = sum_i |lam^2 / (S_i^2 + lam^2) beta_i|^2 + perp,
    so one projection of the data serves the whole ladder.
    """
    U, S, _ = op.svd()
    d, beta = op._projected(data)
    perp = np.linalg.norm(d - U @ beta) ** 2
    lam2 = np.asarray(ladder, dtype=float)[:, None] ** 2
    return np.sqrt(np.sum(np.abs(lam2 / (S ** 2 + lam2) * beta) ** 2, axis=1) + perp)


def morozov_lambda(op, data, eps_target, ladder=None):
    """Largest ladder value whose residual stays within 1.1 * eps_target,
    or the smallest ladder value if none does."""
    _, S, _ = op.svd()
    if ladder is None:
        ladder = S[0] * np.logspace(-8.0, 0.0, 25)
    ladder = np.sort(np.asarray(ladder, dtype=float))
    ok = np.flatnonzero(_tikhonov_residuals(op, data, ladder) <= 1.1 * eps_target)
    return float(ladder[ok[-1]] if len(ok) else ladder[0])


def reconstruct_homogeneous(data, medium, x_grid, omega_floor=1e-8):
    """Direct Fourier inversion, valid only for c1 = c2 = c.

    The endpoint data determine the transform of the source at +-c*omega
    exactly; a band-limited trapezoid inverse transform onto x_grid
    recovers the source up to the content beyond |xi| = c*K.
    """
    if medium.c1 != medium.c2:
        raise ValueError("direct Fourier inversion requires a homogeneous medium (c1 = c2)")
    om = data.grid.omegas
    if om[0] < omega_floor:
        raise ValueError(
            f"grid contains omega = {om[0]} below the floor {omega_floor} "
            "(1/omega amplification guard)"
        )
    c = medium.c1
    x_grid = np.asarray(x_grid, dtype=float)
    # u(+-1, omega) = i e^{i c omega} / (2 c omega) * fhat(+-c omega)
    demod = 2.0 * c * om / (1j * np.exp(1j * c * om))
    fh_plus = data.u_plus * demod
    fh_minus = data.u_minus * demod
    xi = np.concatenate([-c * om[::-1], c * om])
    fh = np.concatenate([fh_minus[::-1], fh_plus])
    rec = np.trapezoid(np.exp(1j * np.outer(x_grid, xi)) * fh, xi, axis=1) / (2.0 * np.pi)
    f_est = SourceSpec.from_grid(x_grid, rec)
    # data misfit of the band-limited estimate, in the discrete data norm
    from .forward import boundary_sweep

    synth = boundary_sweep(f_est, medium, data.grid)
    residual = epsilon_norm(BoundaryData(data.grid, data.u_minus - synth.u_minus,
                                         data.u_plus - synth.u_plus))
    return ReconstructionResult(f_est, "homogeneous_ft", float(data.grid.K), residual)


def recon_error(f_est, f_true):
    """Trapezoid L2 norm of (estimate - truth) on the reconstruction grid."""
    if isinstance(f_est, ReconstructionResult):
        f_est = f_est.f_est
    if f_est.kind != "grid":
        raise ValueError("estimate must be a grid source")
    x = f_est.x_grid
    diff = f_est(x) - f_true(x)
    return float(np.sqrt(np.trapezoid(np.abs(diff) ** 2, x)))
