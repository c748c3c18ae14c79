"""Reconstruction of the source from multi-frequency endpoint data.

The discretized forward map sends nodal coefficients of a hat-function
basis (supported strictly inside (-1, 1)) to stacked endpoint data,
with rows weighted so the Euclidean data misfit equals the discrete
frequency-weighted data norm.  It has two builders that share the
basis, the range checks, the row weights and the operator's
construction.  ``reconstruct``'s, ``assemble_operator``, integrates
each hat by Gauss cells through the Green's kernel
(``forward._endpoint_map``).  The stability sweep's, ``_exact_operator``,
sums the hats' exact transforms over the endpoint rows
(``greens._endpoint_rows``), with no rule and no kernel table.
Regularized inverses: Tikhonov on a lambda ladder (optionally picked by
the discrepancy rule), truncated SVD, and the exact direct Fourier
inversion available when the medium is homogeneous.  The SVD solves take
one data set, or a block of them with a column per set (the stability
sweep's cells of one band and noise level), in the same routines; a
sweep band factors its operator once, without U, and projects the data
of all its blocks at once (``ForwardOperator.svd`` and ``project``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import FrequencyGrid, SourceSpec, _scaled_norm
from .forward import BoundaryData, _endpoint_map
from .greens import _check_wavenumbers, _endpoint_rows
from .fourier import endpoint_data, epsilon_norm, trapezoid_weights
from .quadrature import composite_rule

__all__ = [
    "ConditioningWarning",
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

# the 1/omega amplification guard: reconstruct_homogeneous refuses a grid
# whose first frequency lies below this
OMEGA_FLOOR = 1e-8


class ConditioningWarning(RuntimeWarning):
    """A solve that ran on badly conditioned or rank-deficient equations."""


@dataclass
class ForwardOperator:
    """Weighted dense map from hat-basis coefficients to stacked data.

    Row order is all u(-1) rows in grid order, then all u(+1) rows; row r
    is scaled by omega_r * sqrt(trapezoid weight) so that
    ||matrix @ c - weighted data||_2 is the discrete data norm of the
    residual.

    Every solve reads the operator in SVD coordinates: S, V and, for its
    data d, beta = U^H d and perp = ||d - U beta|| (``project``).
    ``svd()`` factors the operator by LAPACK's gesdd, U included, and data
    are projected through U (``reconstruct``).  ``svd(u=False)`` forms no
    U where gesdd would begin with a QR, and data are projected through
    that QR's reflectors: the stability sweep factors each band's
    operator before its data exist and projects all of them at once.
    Either way S and V are gesdd's doubles.
    """

    grid: FrequencyGrid
    basis_x: np.ndarray
    support: tuple
    matrix: np.ndarray
    row_weights: np.ndarray

    def __post_init__(self):
        self._svd = self._qr = None
        self._projection = None

    @property
    def n_basis(self):
        return len(self.basis_x)

    def svd(self, u=True):
        """(U, S, Vh), factored once, by the first call; V = Vh^H, the
        transposed view of conj(Vh) that every solve reads, is formed
        beside it.

        With ``u`` false, U is not formed where LAPACK's gesdd would
        begin with the Householder QR A = Q R, for an operator with at
        least 17/9 as many rows as columns.  That QR is taken alone
        (``np.linalg.qr``'s raw mode) and R = U_R diag(S) Vh, so S and Vh
        are gesdd's own doubles; U = Q U_R is None, and the reflectors
        and U_R are kept to project data (``project``)."""
        if self._svd is None:
            m, n = self.matrix.shape
            if not u and m >= int(n * 17.0 / 9.0):
                h, tau = np.linalg.qr(self.matrix, mode="raw")
                U_R, S, Vh = np.linalg.svd(np.triu(h.T[:n]), full_matrices=False)
                self._svd, self._qr = (None, S, Vh), (h, tau, U_R)
            else:
                self._svd = np.linalg.svd(self.matrix, full_matrices=False)
            self._v = self._svd[2].conj().T
        return self._svd

    def apply(self, coeffs):
        """Weighted stacked data of a coefficient vector."""
        return self.matrix @ np.asarray(coeffs, dtype=complex)

    def weighted_data(self, data):
        """Stacked data scaled by the row weights: a vector, or for a
        block of data sets a column per set."""
        if len(data.grid) != len(self.grid):
            raise ValueError(
                f"data has {len(data.grid)} frequencies, operator expects {len(self.grid)}"
            )
        d = np.concatenate([data.u_minus, data.u_plus])
        return d * self.row_weights.reshape((-1,) + (1,) * (d.ndim - 1))

    def project(self, *blocks):
        """Project blocks of data sets (``BoundaryData``, a column per set
        or one set) and keep each block's weighted data d, SVD coordinates
        beta = U^H d and the norm perp = ||d - U beta|| of what U leaves
        out (a column and a norm per set) for its solves.  Through U, each
        block is one product.  Without U (``svd(u=False)``), all blocks'
        data D are reflected at once (``_reflect``): with n columns,
        beta = U_R^H (Q^H D)[:n] and perp = ||(Q^H D)[n:]||.  Either way
        each column comes from its own data alone."""
        U = self.svd()[0]
        ds = [self.weighted_data(b) for b in blocks]
        self._projection = []
        if U is not None:
            for b, d in zip(blocks, ds):
                beta = _project(U, d)
                self._projection.append((b, d, beta, _scaled_norm(_norms, d - U @ beta)))
        else:
            h, tau, U_R = self._qr
            m, n = self.matrix.shape
            QD = _reflect(h, tau, np.hstack([d.reshape(m, -1) for d in ds]))
            ends = np.cumsum([0] + [d.size // m for d in ds])
            self._projection = [
                (b, d, _project(U_R, QD[:n, lo:hi]).reshape(n, *d.shape[1:]),
                 _scaled_norm(_norms, QD[n:, lo:hi].reshape(m - n, *d.shape[1:])))
                for b, d, lo, hi in zip(blocks, ds, ends, ends[1:])]

    def _projected(self, data):
        """(d, beta, perp) of ``project`` for ``data``: as kept for the
        blocks projected last, or else projected now and kept as the last
        data seen (``BoundaryData`` is frozen, its arrays read-only), so
        that a discrepancy scan and the solve after it project the data
        once."""
        for entry in self._projection or ():
            if entry[0] is data:
                return entry[1:]
        self.project(data)
        return self._projection[0][1:]

    def boundary_data(self, coeffs):
        """Unweighted endpoint data predicted for a coefficient vector."""
        v = self.apply(coeffs) / self.row_weights
        n = len(self.grid)
        return BoundaryData(self.grid, v[:n], v[n:])

    @property
    def x_grid(self):
        """The estimates' grid: the basis nodes between the support's ends."""
        a, b = self.support
        return np.concatenate([[a], self.basis_x, [b]])

    def grid_source(self, coeffs):
        """Coefficient vector as a grid source (zero at the support edges);
        a block of coefficient columns gives one sample column per set."""
        coeffs = np.asarray(coeffs, dtype=complex)
        vals = np.pad(coeffs, [(1, 1)] + [(0, 0)] * (coeffs.ndim - 1))
        return SourceSpec.from_grid(self.x_grid, vals)


def _basis(n_basis, support):
    """The support (a, b), the n_basis interior nodes of its uniform
    partition and their spacing h, for a hat basis strictly inside
    (-1, 1) whose hats are told apart."""
    a, b = float(support[0]), float(support[1])
    if not (-1.0 < a < b < 1.0):
        raise ValueError(f"basis support [{a}, {b}] must lie strictly inside (-1, 1)")
    if n_basis < 8:
        raise ValueError("need at least 8 basis functions")
    edges = np.linspace(a, b, n_basis + 2)
    if not (np.diff(edges) > 0).all():
        raise ValueError(f"basis support [{a}, {b}] is too narrow for {n_basis} hats")
    return (a, b), edges[1:-1], edges[1] - edges[0]


def _weighted_operator(grid, nodes_x, support, matrix):
    """The operator of the stacked endpoint fields ``matrix`` (rows
    u(-1), then u(+1)), its rows scaled where they lie by omega
    sqrt(trapezoid weight)."""
    om = grid.omegas
    wr = om * np.sqrt(trapezoid_weights(om))
    row_weights = np.concatenate([wr, wr])
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: the solves refuse it
        matrix *= row_weights[:, None]
    return ForwardOperator(grid, nodes_x, support, matrix, row_weights)


def assemble_operator(medium, grid, n_basis, support):
    """Column j is the endpoint sweep of the j-th hat function.

    The hats live on n_basis interior nodes of a uniform partition of
    ``support``; integration is per cell (hat pieces are linear), six
    Gauss nodes a panel, with the cell that holds the interface split at
    x = 0, where the kernel has a kink, and with panel refinement when a
    cell spans more than ~2 radians of phase at the top frequency.
    """
    (a, b), nodes_x, h = _basis(n_basis, support)
    rate = medium.c_max * float(grid.omegas[-1])
    y, w = composite_rule(a, b, [*nodes_x, 0.0], rate, base_panels=1, nodes=6)
    # hat values at the quadrature nodes, scaled by the weights
    H = np.clip(1.0 - np.abs((y[:, None] - nodes_x[None, :]) / h), 0.0, None) * w[:, None]
    matrix = _endpoint_map(grid.omegas, y, H, medium)  # rows u(-1), then u(+1)
    return _weighted_operator(grid, nodes_x, (a, b), matrix)


# below this |t|, phi2(t) is summed as its series: the first term left
# out, t^10 / 12!, is then under 3e-19
_PHI2_SERIES = 0.1
_PHI2_COEFFS = [1.0 / math.factorial(k + 2) for k in range(10)]


def _phi2(t):
    """phi2(t) = (e^t - 1 - t) / t^2 = sum_k t^k / (k + 2)!."""
    t = np.asarray(t, dtype=complex)
    out = np.empty_like(t)
    small = np.abs(t) < _PHI2_SERIES
    ts, tb = t[small], t[~small]
    out[small] = np.polynomial.polynomial.polyval(ts, _PHI2_COEFFS)
    out[~small] = (np.expm1(tb) - tb) / tb ** 2
    return out


def _piece_transform(s, u, v, alpha, beta):
    """int_u^v e^{s y} l(y) dy for the linear l with l(u) = alpha and
    l(v) = beta: with L = v - u and t = s L,

        L e^{s u} (alpha phi2(t) + beta e^t phi2(-t)),

    exact for every s, an array of them."""
    L = v - u
    t = s * L
    return L * np.exp(s * u) * (alpha * _phi2(t) + beta * np.exp(t) * _phi2(-t))


def _exact_operator(medium, grid, n_basis, support):
    """The operator of ``assemble_operator`` from the hats' exact
    endpoint transforms: no quadrature rule and no kernel table.

    By the endpoint representation (``greens._endpoint_rows``), omega
    u(e, omega) = i sum over the rows of e of coeff e^{i phase omega}
    int e^{i rate omega y} f_side(y) dy.  A hat wholly on one side
    transforms to h e^{i r x_j} sinc^2(r h / 2), r = rate omega.  The
    rows of a side share |rate| = c_side, so one table cos, sin(c_side
    omega x_j) per side serves them all: the rows of rate +c_side sum to
    p, those of -c_side to q, and the block is (p + q) cos + i (p - q)
    sin.  Where the reflected and direct rows' amplitudes are exact
    negatives (c_side far below the other speed), p + q is exactly 0,
    where the kernel's sum leaves rounding residue.  A hat that crosses
    x = 0 is cut there into linear pieces (``_piece_transform``).
    """
    support, x, h = _basis(n_basis, support)
    om = grid.omegas
    _check_wavenumbers(medium, np.append(om, 1.0))  # the grid's amplitudes and the unit table
    n = len(om)
    matrix = np.zeros((2 * n, n_basis), dtype=complex)
    block = {"minus": matrix[:n], "plus": matrix[n:]}
    # hats wholly left of 0, across it, wholly right of it
    lo, hi = np.searchsorted(x + h, 0.0, side="right"), np.searchsorted(x - h, 0.0)
    sides = {"right": (medium.c1, slice(hi, n_basis), 0.0, 1.0),
             "left": (medium.c2, slice(0, lo), -1.0, 0.0)}
    amps = {}
    for e, coeff, side, rate, phase in _endpoint_rows(medium):
        amp = 1j * coeff * np.exp(1j * phase * om) / om
        amps[e, side, rate > 0] = amps.get((e, side, rate > 0), 0.0) + amp
        _, _, y0, y1 = sides[side]
        for j in range(lo, hi):
            # the hat's two linear pieces, each cut to this side
            for u, v in ((x[j] - h, x[j]), (x[j], x[j] + h)):
                u, v = max(u, y0), min(v, y1)
                if u < v:
                    ends = np.clip(1.0 - np.abs(np.array([u, v]) - x[j]) / h, 0.0, None)
                    block[e][:, j] += amp * _piece_transform(1j * rate * om, u, v, *ends)
    for side, (c, cols, _, _) in sides.items():
        if cols.start >= cols.stop:
            continue
        r = c * om
        phase = np.multiply.outer(r, x[cols])
        cos, sin = np.cos(phase), np.sin(phase)
        env = h * np.sinc(r * h / (2.0 * np.pi)) ** 2
        for e in ("minus", "plus"):
            p, q = (amps.get((e, side, sign), 0.0) * env for sign in (True, False))
            block[e][:, cols] = (p + q)[:, None] * cos + (1j * (p - q))[:, None] * sin
    return _weighted_operator(grid, x, support, matrix)


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
    if not raw > 0:
        raise ValueError(f"noise of data norm {raw} cannot be scaled to {eps_target:g}: "
                         f"the frequencies, down to {data.grid.omegas[0]:.3g}, are too low")
    scale = eps_target / raw
    return BoundaryData(data.grid, data.u_minus + scale * pert_m,
                        data.u_plus + scale * pert_p)


@dataclass
class ReconstructionResult:
    """A gridded estimate plus the misfit it achieves.  Solved for a block
    of data sets, ``f_est`` holds one sample column per set, ``residual``
    one entry per set, and ``reg_param`` one value for all or one per set.
    """

    f_est: SourceSpec
    method: str
    reg_param: float
    residual: float


def _project(U, d):
    """U^H d, formed as conj(U^T conj(d)) so that U is not copied.  Each
    product is the one of U^H d up to an exact negation, and U^T and U^H
    take the same BLAS path, so the doubles are those of U.conj().T @ d."""
    return (U.T @ d.conj()).conj()


# reflectors a block in ``_reflect``, LAPACK's block size for zgeqrf
_WY_BLOCK = 32


def _reflect(h, tau, D):
    """Q^H D for the Householder QR A = Q R of an operator with at least
    as many rows as columns, given as ``np.linalg.qr(A, mode="raw")``
    gives it, (h, tau), with Q never formed.  Each block of _WY_BLOCK
    reflectors I - tau_i y_i y_i^H multiplies to I - Y T Y^H (T by
    LAPACK's zlarft recurrence) and is applied to D as three matrix
    products, so each column of the result comes from its own column of
    D alone."""
    Y = np.tril(h.T, -1)
    k = len(tau)
    Y[range(k), range(k)] = 1.0
    D = D.copy()
    for lo in range(0, k, _WY_BLOCK):
        Yb, tb = Y[lo:, lo:lo + _WY_BLOCK], tau[lo:lo + _WY_BLOCK]
        Yb_h = Yb.conj().T
        G = Yb_h @ Yb
        T = np.diag(tb)
        for i in range(1, len(tb)):
            T[:i, i] = -tb[i] * (T[:i, :i] @ G[:i, i])
        D[lo:] -= Yb @ (T.conj().T @ (Yb_h @ D[lo:]))
    return D


def _norms(r):
    """||r||_2, or the norm of each column of a block r."""
    return np.linalg.norm(r, axis=0 if r.ndim == 2 else None)


def _filtered_solve(op, data, filt):
    """Coefficients V diag(filt) U^H d and their data misfit; ``filt``
    holds one filter value per singular value, or for a block of data
    sets one row of them for all sets or per set.  One data set keeps the
    product (V diag(filt)) beta, whose doubles ``reconstruct``'s pins
    hold; a block takes one product with V whatever its filters, so a
    column's doubles depend on the block's width alone, not on which
    columns share its filter.  The misfit is finite wherever its entries
    are (``model._scaled_norm``)."""
    op.svd()
    d, beta, _ = op._projected(data)
    if beta.ndim == 1:
        coeffs = (op._v * filt) @ beta
    else:
        coeffs = op._v @ (np.atleast_2d(filt).T * beta)
    return coeffs, _scaled_norm(_norms, op.matrix @ coeffs - d)


def reconstruct_tikhonov(op, data, lam):
    """Minimize ||A c - d||^2 + lam^2 ||c||^2 through the SVD filter.  A
    block of data sets takes one lam for all, or a column of them, one
    per set, as ``morozov_lambda`` gives it."""
    if np.any(lam <= 0):
        raise ValueError("regularization parameter must be positive")
    if not np.all(lam ** 2 > 0):
        raise FloatingPointError(f"regularization parameter {np.min(lam):g} squares to 0")
    _, S, _ = op.svd()
    cond = np.max((S[0] ** 2 + lam ** 2) / (S[-1] ** 2 + lam ** 2))
    if cond > 1e12:
        warnings.warn(
            f"regularized normal equations badly conditioned (estimate {cond:.2e})",
            ConditioningWarning, stacklevel=2,
        )
    coeffs, residual = _filtered_solve(op, data, S / (S ** 2 + lam ** 2))
    reg = float(lam) if np.ndim(lam) == 0 else np.ravel(lam)
    return ReconstructionResult(op.grid_source(coeffs), "tikhonov", reg, residual)


def reconstruct_tsvd(op, data, k):
    """Invert on the span of the top-k singular triples."""
    _, S, _ = op.svd()
    if not 1 <= k <= len(S):
        raise ValueError(f"rank k must be in [1, {len(S)}], got {k}")
    if not S[k - 1] > 0:
        raise ValueError(f"singular value {k} of the operator is 0: its rank is below {k}")
    if S[k - 1] / S[0] < 1e-14:
        warnings.warn(f"singular value {k} is at numerical rank deficiency",
                      ConditioningWarning, stacklevel=2)
    filt = np.zeros(len(S))
    filt[:k] = 1.0 / S[:k]
    coeffs, residual = _filtered_solve(op, data, filt)
    return ReconstructionResult(op.grid_source(coeffs), "tsvd", float(k), residual)


def _tikhonov_residuals(op, data, ladder):
    """Tikhonov residual ||A c_lam - d|| at every lam of ``ladder``; for
    a block of data sets, one row of them per set.

    With A = U diag(S) V^H, beta = U^H d and perp = ||d - U beta||,
    ||A c_lam - d||^2 = sum_i |lam^2 / (S_i^2 + lam^2) beta_i|^2 + perp^2,
    so one projection of the data serves the whole ladder.  Data whose
    squares overflow, though the residuals are finite, are summed again
    rescaled (``model._scaled_norm``).
    """
    _, S, _ = op.svd()
    _, beta, perp = op._projected(data)
    lam2 = np.asarray(ladder, dtype=float)[:, None] ** 2
    filt = lam2 / (S ** 2 + lam2)

    def norm(p, b):
        terms = np.abs(filt * b.T[..., None, :]) ** 2  # [set,] ladder step, S_i
        return np.sqrt(np.sum(terms, axis=-1) + np.asarray(p)[..., None] ** 2)

    return _scaled_norm(norm, perp, beta)


def morozov_lambda(op, data, eps_target, ladder=None):
    """Largest ladder value whose residual stays within 1.1 * eps_target,
    or the smallest ladder value if none does.  A block of data sets gets
    one value per set, as a column, which broadcasts against the singular
    values as ``reconstruct_tikhonov``'s filter needs."""
    _, S, _ = op.svd()
    if ladder is None:
        ladder = S[0] * np.logspace(-8.0, 0.0, 25)
    ladder = np.sort(np.asarray(ladder, dtype=float))
    met = _tikhonov_residuals(op, data, ladder) <= 1.1 * eps_target
    # the last ladder index met along each row, or 0 where none is
    last = len(ladder) - 1 - np.argmax(met[..., ::-1], axis=-1, keepdims=True)
    lam = ladder[np.where(met.any(axis=-1, keepdims=True), last, 0)]
    return float(lam[0]) if met.ndim == 1 else lam


def reconstruct_homogeneous(data, medium, x_grid):
    """Direct Fourier inversion, valid only for c1 = c2 = c.

    The endpoint data determine the transform of the source at +-c*omega
    exactly; a band-limited trapezoid inverse transform onto x_grid
    recovers the source up to the content beyond |xi| = c*K.
    """
    if medium.c1 != medium.c2:
        raise ValueError("direct Fourier inversion requires a homogeneous medium (c1 = c2)")
    om = data.grid.omegas
    if om[0] < OMEGA_FLOOR:
        raise ValueError(
            f"grid contains omega = {om[0]} below the floor {OMEGA_FLOOR} "
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
    synth = endpoint_data(f_est, medium, data.grid)
    residual = epsilon_norm(BoundaryData(data.grid, data.u_minus - synth.u_minus,
                                         data.u_plus - synth.u_plus))
    return ReconstructionResult(f_est, "homogeneous_ft", float(data.grid.K), residual)


def _grid_l2(x, d):
    """Trapezoid L2 norm over the grid x of d, or of each row of a block
    d, finite wherever d is (``model._scaled_norm``)."""
    return _scaled_norm(lambda d: np.sqrt(np.trapezoid(np.abs(d) ** 2, x)), d)


def recon_error(f_est, f_true):
    """Trapezoid L2 norm of (estimate - truth) on the reconstruction grid,
    finite wherever the difference is (``model._scaled_norm``)."""
    if isinstance(f_est, ReconstructionResult):
        f_est = f_est.f_est
    if f_est.kind != "grid":
        raise ValueError("estimate must be a grid source")
    x = f_est.x_grid
    return float(_grid_l2(x, f_est(x) - f_true(x)))
