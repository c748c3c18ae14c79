"""Reconstruction of the source from multi-frequency endpoint data.

The discretized forward map sends nodal coefficients of a hat-function
basis (supported strictly inside (-1, 1)) to stacked endpoint data,
with rows weighted so the Euclidean data misfit equals the discrete
frequency-weighted data norm.  It has two builders that share the
basis, the range checks, the row weights and the operator's
construction.  ``reconstruct``'s, ``assemble_operator``, integrates
each hat by Gauss cells through the Green's kernel
(``forward._endpoint_map``).  The stability sweep's, ``_exact_operator``,
takes the hats' exact transforms, with no rule and no kernel table,
from ``_spline_columns``: the one exact-transform routine for uniform
B-splines of any order, which gives the sweep's sources their data too.
The hats are its order-2 splines.
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

from .model import FrequencyGrid, SourceSpec, _bspline_basis, _scaled_norm
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


def _phi(k, t):
    """phi_k(t) = (e^t - sum_{m<k} t^m / m!) / t^k = sum_m t^m / (m + k)!,
    the integral of e^{(1 - s) t} s^{k-1} / (k - 1)! over s in (0, 1).
    Below |t| = k it is summed as its series, to 2k + 20 terms, the first
    left out then at most 1.1e-17 of the first; from there on by its first
    form, whose terms are then at most about sqrt(2 pi k) times its size."""
    t = np.asarray(t, dtype=complex)
    out = np.empty_like(t)
    small = np.abs(t) < k
    ts, tb = t[small], t[~small]
    inv = np.cumprod(1.0 / np.arange(1.0, 3 * k + 20))  # 1 / m! for m >= 1
    polyval = np.polynomial.polynomial.polyval
    out[small] = polyval(ts, inv[k - 1:])
    out[~small] = (np.expm1(tb) - polyval(tb, np.r_[0.0, inv[:k - 1]])) / tb ** k
    return out


def _piece_transform(s, u, v, values):
    """int_u^v e^{s y} p(y) dy for the polynomial p of degree d =
    len(values) - 1 whose values at the d + 1 equispaced points from u to
    v (u alone for d = 0) are ``values``: with L = v - u, t = s L and
    p(u + L tau) = sum_m a_m tau^m,

        L e^{s v} sum_m a_m m! phi_{m+1}(-t),

    since int_0^1 e^{t tau} tau^m d tau = m! e^t phi_{m+1}(-t); exact for
    every s, an array of them.  A linear piece's values are its ends'."""
    L = v - u
    a = np.linalg.solve(np.vander(np.linspace(0.0, 1.0, len(values)), increasing=True), values)
    return L * np.exp(s * v) * sum(a_m * math.factorial(m) * _phi(m + 1, -s * L)
                                   for m, a_m in enumerate(a))


def _spline_columns(medium, om, centers, h, order):
    """The endpoint data u(-1, omega), then u(+1, omega), at the
    frequencies ``om``, a column per uniform B-spline of order ``order``
    with knot spacing h centred at ``centers``, each of integral h: the
    exact transforms, with no quadrature rule and no kernel table.  The
    order-2 splines are the hats of peak 1; a B-spline source on [a, b]
    is the spline of h = (b - a) / order centred at (a + b) / 2, times
    its amplitude over its peak.

    By the endpoint representation (``greens._endpoint_rows``), omega
    u(e, omega) = i sum over the rows of e of coeff e^{i phase omega}
    int e^{i rate omega y} f_side(y) dy.  A spline wholly on one side
    transforms to h e^{i r c} sinc^order(r h / 2), r = rate omega, c its
    centre.  The rows of a side share |rate| = c_side, so one table cos,
    sin(c_side omega c) per side serves them all: the rows of rate
    +c_side sum to p, those of -c_side to q, and the block is (p + q) cos
    + i (p - q) sin.  Where the reflected and direct rows' amplitudes are
    exact negatives (c_side far below the other speed), p + q is exactly
    0, where the kernel's sum leaves rounding residue.  A spline that
    crosses x = 0 is cut at its knots and there into polynomial pieces,
    each given by its values (``model._bspline_basis``) at ``order``
    points and transformed at both rates of its side
    (``_piece_transform``).
    """
    x = np.asarray(centers, dtype=float)
    _check_wavenumbers(medium, np.append(om, 1.0))  # the grid's amplitudes and the unit table
    n = len(om)
    u = np.zeros((2 * n, len(x)), dtype=complex)
    block = {"minus": u[:n], "plus": u[n:]}
    reach = order * h / 2.0
    sides = {"right": (medium.c1, x - reach >= 0.0), "left": (medium.c2, x + reach <= 0.0)}
    pieces = {"right": [], "left": []}  # (column, transforms at rate +c_side, -c_side)
    for j in np.flatnonzero(~(sides["right"][1] | sides["left"][1])):
        spline = SourceSpec.bspline(x[j] - reach, x[j] + reach, order)
        knots = spline._knots[order - 1:2 * order]
        for a, b in zip(knots[:-1], knots[1:]):
            for side, lo, hi in (("left", a, min(b, 0.0)), ("right", max(a, 0.0), b)):
                if lo < hi:
                    s = 1j * np.multiply.outer([sides[side][0], -sides[side][0]], om)
                    values = _bspline_basis(spline._knots, order - 1, np.linspace(lo, hi, order))
                    pieces[side].append((j, _piece_transform(s, lo, hi, values)))
    amps = {}
    for e, coeff, side, rate, phase in _endpoint_rows(medium):
        amp = 1j * coeff * np.exp(1j * phase * om) / om
        amps[e, side, rate > 0] = amps.get((e, side, rate > 0), 0.0) + amp
        for j, transforms in pieces[side]:
            block[e][:, j] += amp * transforms[int(rate < 0)]
    for side, (c, cols) in sides.items():
        r = c * om
        phase = np.multiply.outer(r, x[cols])
        cos, sin = np.cos(phase), np.sin(phase)
        env = h * np.sinc(r * h / (2.0 * np.pi)) ** order
        for e in ("minus", "plus"):
            p, q = (amps.get((e, side, sign), 0.0) * env for sign in (True, False))
            block[e][:, cols] = (p + q)[:, None] * cos + (1j * (p - q))[:, None] * sin
    return u


def _exact_operator(medium, grid, n_basis, support):
    """The operator of ``assemble_operator`` from the hats' exact
    endpoint transforms (``_spline_columns`` of order 2): no quadrature
    rule and no kernel table."""
    support, x, h = _basis(n_basis, support)
    return _weighted_operator(grid, x, support, _spline_columns(medium, grid.omegas, x, h, 2))


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
