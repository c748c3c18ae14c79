"""Half-line transforms and multi-frequency data-energy functionals.

The endpoint data of the layered problem is, frequency by frequency, an
explicit linear combination of half-line Fourier transforms of the split
source (convention fhat(xi) = int e^{-i xi y} f(y) dy).  This module
provides those transforms, the band energy built from them (one
function, analytic in the band limit), the discrete data norm used as
the noise level, and the tail-decay and energy-constant experiments.

Every transform is one exponential sum over a composite Gauss-Legendre
rule, a run of panels of q nodes.  A node is its panel's midpoint m_p
plus an offset d_q that all panels of one width share.  The arguments
are panels as well when they come as a 2-D array: row r holds the
arguments X_r + x_k, its midpoint plus offsets that all rows of one
width share.  A composite rule in omega reshaped to (panels, nodes) is
such an array, and so is any multiple of one (c omega, s t).  Over a
run of node panels and a run of argument rows the phase splits exactly,

    sum_pq F_pq e^{-i (X_r + x_k)(m_p + d_q)}
        = sum_q e^{-i X_r d_q} e^{-i x_k d_q} sum_p e^{-i X_r m_p} (e^{-i x_k m_p} F_pq),

into four small tables (R x P, qa x P, R x q and qa x q for R rows of
qa arguments and P panels of q nodes) and one matrix product, (R x P)
times (P x qa q), instead of one exponential per (argument, node).  A
1-D argument array is the case of one argument a row, x_k = 0.  The
identity is exact; it changes only the rounding.  Weight columns ride
along: the product takes every column of fw at once, for one table.

The endpoint amplitudes need, on each side, fhat at +-c omega (c the
side's speed) and, for the kernel-conjugate partner G, the transform of
conj f at the same arguments.  By the exact identity

    fhat(-xi) = conj((conj f)^(conj xi))

one table at xi = c omega with the two columns fw and conj(fw) gives all
four for real omega; for complex omega a second table at conj xi does.
So the six rows of the endpoint table read one table per side (two for
complex omega) instead of building one per row.

The amplitude bound checks many single draws (f, medium, omega), each on
its own rule and at its own arguments, so no table is shared: its
transforms are the dense sums of ``forward._draw_sums``, one exponential
per node, over a batch of draws at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import _draw_sums, _panel_nodes, _write_csv, boundary_sweep, source_rule
from .greens import _endpoint_rows
from .model import FrequencyGrid, l2_norm_sq, split_source
from .quadrature import composite_rule

__all__ = [
    "DataEnergy",
    "halfline_ft",
    "halfline_ft_many",
    "plancherel_residual",
    "data_energy",
    "data_energy_from_sweep",
    "trapezoid_weights",
    "epsilon_norm",
    "tail_decay_fit",
    "endpoint_amplitude_bound",
    "endpoint_amplitude_bound_many",
    "data_energy_constant",
    "fit_loglog",
    "fit_loglog_slope",
    "write_tail_csv",
    "write_ratio_csv",
]


# the halves in the order of ``forward._draw_sums``' transforms
_HALVES = ("left", "right")


def _side_source(pair, side):
    if side == "right":
        return pair.f1
    if side == "left":
        return pair.f2
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def halfline_ft(pair, side, xi):
    """fhat_side(xi) = int e^{-i xi y} f_side(y) dy over the side's interval."""
    return complex(halfline_ft_many(pair, side, xi))


def halfline_ft_many(pair, side, xis, nodes=16, chunk=4096,
                     paired=False):
    """Half-line transform on an array of (possibly complex) arguments.

    One quadrature rule resolved at max |Re xi| serves all arguments.
    A 2-D ``xis`` is read as argument panels, one a row (see the module
    docstring): any 2-D array gives the same sums, at the least cost
    when its rows share their offsets from their midpoints.  Evaluation
    takes whole rows, at most ``chunk`` arguments in all (one row if it
    is longer), at a time, to bound the size of the tables.  With
    ``paired`` the result gains a trailing axis of two, the transforms
    of f_side and of conj f_side from the same sum; the second,
    conjugated, is fhat_side(-conj xi).
    """
    xis = np.asarray(xis, dtype=complex)
    src = _side_source(pair, side)
    shape = xis.shape + ((2,) if paired else ())
    if src.support is None or xis.size == 0:
        return np.zeros(shape, dtype=complex)
    scale = float(np.max(np.abs(xis.real)))
    y, w = source_rule(src, scale, nodes=nodes)
    fw = w * src(y)
    if paired:
        fw = np.stack([fw, np.conj(fw)], axis=-1)
    panels = xis if xis.ndim == 2 else xis.reshape(-1, 1)
    return _expsum(y, fw, panels, _panel_nodes(src, nodes), chunk).reshape(shape)


def _expsum(y, fw, xis, q, chunk):
    """sum_j fw_j exp(-i xi y_j) for every xi of the 2-D array ``xis``
    and every trailing column of fw, over a rule made of panels of q
    consecutive nodes, factored on both sides as the module docstring
    says: the rows of ``xis`` are the argument panels.

    Consecutive panels whose offsets agree to within the rounding of
    their points form a run and share one offset table, on either side.
    A panel of offsets of its own (a grid cell, a row of arbitrary
    arguments) is a run of one.
    """
    mids, offs, cuts = _runs(y.reshape(-1, q))
    F = fw.reshape(len(mids), q, -1)  # panel p holds fw[p*q:(p+1)*q, ...] row-major
    xmids, xoffs, xcuts = _runs(xis)
    qa, cols = xis.shape[1], F.shape[2]
    step = max(1, chunk // qa)
    res = np.zeros((len(xis), qa, cols), dtype=complex)
    for alo, ahi in zip(xcuts[:-1], xcuts[1:]):
        b = -1j * xoffs[alo]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            # row p holds fw_pq e^{-i x_k m_p} over (k, q, column)
            G = (_exp_table(mids[lo:hi], b)[:, :, None, None] * F[lo:hi, None]).reshape(
                hi - lo, -1)
            inner = _exp_table(b, offs[lo])
            for i in range(alo, ahi, step):
                a = -1j * xmids[i:min(i + step, ahi)]
                T = (_exp_table(a, mids[lo:hi]) @ G).reshape(len(a), qa, q, cols)
                phase = _exp_table(a, offs[lo])[:, None, :] * inner
                res[i:i + len(a)] += np.einsum("rkqc,rkq->rkc", T, phase)
    return res.reshape(xis.shape + fw.shape[1:])


def _runs(v):
    """Midpoints, offsets and run bounds of the panels (rows) of v.

    A run is a stretch of consecutive panels whose offsets from their
    midpoints each agree with the previous panel's to within
    8 eps max |v|; all panels of a run share its first panel's offsets.
    Comparing neighbours, not rounded widths, keeps a run whole when its
    widths sit at a rounding boundary, and an all-zero v is one run.
    """
    mids = 0.5 * (v[:, 0] + v[:, -1])
    offs = v - mids[:, None]
    tol = 8.0 * np.finfo(float).eps * np.max(np.abs(v))
    jumps = np.flatnonzero(np.max(np.abs(np.diff(offs, axis=0)), axis=1) > tol)
    return mids, offs, [0, *(jumps + 1).tolist(), len(v)]


def _exp_table(a, y):
    """The table exp(a_k y_j), built in place."""
    out = np.multiply.outer(a, y)
    return np.exp(out, out=out)


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


def _endpoint_amplitudes(pair, medium, omegas, nodes=16):
    """F and its kernel-conjugate partner G at both endpoints, keyed
    (endpoint, conjugate), from one paired table per side (two for
    complex omega).  A 2-D ``omegas`` reaches the sums as panels.

    Row (e, coeff, side, rate, phase) adds coeff e^{i phase omega}
    fhat(-rate omega) to F_e and coeff e^{-i phase omega}
    (conj f)^(rate omega) to G_e.
    """
    omegas = np.asarray(omegas, dtype=complex)
    om = omegas if omegas.ndim == 2 else omegas.reshape(-1, 1)
    n, real = len(om), not np.any(om.imag)
    rows = _endpoint_rows(medium)
    # e^{+-i phase omega} for the two phases c1 and c2; for real omega
    # the minus sign is the conjugate
    rot = {}
    for phase in {row[4] for row in rows}:
        rot[phase, 1.0] = np.exp(1j * phase * om)
        rot[phase, -1.0] = np.conj(rot[phase, 1.0]) if real else np.exp(-1j * phase * om)
    out = {(e, g): np.zeros(om.shape, dtype=complex)
           for e in ("minus", "plus") for g in (False, True)}
    for side, speed in (("right", medium.c1), ("left", medium.c2)):
        xi = speed * om
        vals = halfline_ft_many(pair, side, xi if real else np.concatenate([xi, np.conj(xi)]),
                                nodes=nodes, paired=True)
        mirror = vals if real else vals[n:]
        # the transforms of f (False) and of conj f (True) at +xi and -xi
        fts = {(1.0, False): vals[:n, ..., 0], (1.0, True): vals[:n, ..., 1],
               (-1.0, False): np.conj(mirror[..., 1]), (-1.0, True): np.conj(mirror[..., 0])}
        for e, coeff, row_side, rate, phase in rows:
            if row_side != side:
                continue
            for g, sgn in ((False, 1.0), (True, -1.0)):
                out[e, g] = out[e, g] + coeff * rot[phase, sgn] * fts[-sgn * np.sign(rate), g]
    return {key: val.reshape(omegas.shape) for key, val in out.items()}


@dataclass(frozen=True)
class DataEnergy:
    """Band energies I1 (left endpoint), I2 (right endpoint), I = I1 + I2."""

    s: complex
    I1: complex
    I2: complex

    @property
    def I(self):
        return self.I1 + self.I2


def data_energy(f, medium, s, n_quad=16):
    """Band energy int_0^s omega^2 |u(-+1, omega)|^2 d omega from the
    explicit endpoint representations, continued analytically to
    complex s with Re s > 0.

    Substituting omega = s t maps the band to t in (0, 1); |F|^2 is
    continued as the product F(st) G(st) with G the kernel-conjugate
    amplitude.  At real omega G is conj F, so for real s the energies
    are real and their real parts are returned.
    """
    s = complex(s)
    if not (np.isfinite(s) and s.real > 0):
        raise ValueError(f"band limit s must be finite with Re(s) > 0, got {s}")
    pair = split_source(f)
    t, w = composite_rule(0.0, 1.0, osc_rate=4.0 * medium.c_max * abs(s), nodes=n_quad)
    amps = _endpoint_amplitudes(pair, medium, (s * t).reshape(-1, n_quad), nodes=n_quad)
    vals = [s * np.sum(w * (amps[e, False] * amps[e, True]).ravel()) for e in ("minus", "plus")]
    if not s.imag:
        vals = [v.real for v in vals]
    return DataEnergy(s, complex(vals[0]), complex(vals[1]))


def _positive(value, name):
    """``value`` as a float, or a ValueError naming ``name`` when it is
    not positive and finite."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def data_energy_from_sweep(f, medium, s):
    """Band energy through the forward solver: Gauss-Legendre nodes in
    omega, endpoint values from boundary_sweep, integrand omega^2 |u|^2."""
    s = _positive(s, "band limit s")
    om, w = composite_rule(0.0, s, osc_rate=4.0 * medium.c_max)
    data = boundary_sweep(f, medium, FrequencyGrid(om, s))
    i1 = float(np.sum(w * om ** 2 * np.abs(data.u_minus) ** 2))
    i2 = float(np.sum(w * om ** 2 * np.abs(data.u_plus) ** 2))
    return DataEnergy(complex(s), complex(i1), complex(i2))


def trapezoid_weights(omegas):
    """Trapezoid weights over [0, omega_1, ..., omega_N] with the
    integrand taken as 0 at omega = 0."""
    ext = np.concatenate([[0.0], np.asarray(omegas, dtype=float)])
    d = np.diff(ext)
    w = np.zeros(len(omegas))
    w[:-1] = 0.5 * (d[:-1] + d[1:])
    w[-1] = 0.5 * d[-1]
    return w


def epsilon_norm(data):
    """Discrete data norm: sqrt of the trapezoid rule for
    int_0^K omega^2 (|u(-1)|^2 + |u(1)|^2) d omega over the data grid."""
    om = data.grid.omegas
    w = trapezoid_weights(om)
    integrand = om ** 2 * (np.abs(data.u_minus) ** 2 + np.abs(data.u_plus) ** 2)
    return float(np.sqrt(np.sum(w * integrand)))


def fit_loglog(xs, ys):
    """Least-squares fit of log y against log x: (slope, intercept, r2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3 or len(xs) != len(ys):
        raise ValueError("need at least 3 matching samples")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires strictly positive values")
    lx, ly = np.log(xs), np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_loglog_slope(xs, ys):
    """Ordinary least-squares slope of log y versus log x."""
    return fit_loglog(xs, ys)[0]


def tail_decay_fit(f, medium, n, s_list, omega_cap, csv_path=None):
    """Fit the decay exponent of the high-frequency tail
    T(s) = int_s^cap omega^2 (|u(-1)|^2 + |u(1)|^2) d omega.

    For a spline source of order n the exponent approaches -(2n - 1).
    One Gauss rule over [s_1, cap], split at every s_k, integrates the
    endpoint amplitude representation; T(s_k) is the sum of the
    segments from s_k on.  Returns (slope, r2) of log T against log s.
    """
    s_list = np.asarray(s_list, dtype=float)
    if (len(s_list) < 3 or not np.all(np.isfinite(s_list)) or not np.all(np.diff(s_list) > 0)
            or s_list[0] <= 0):
        raise ValueError("s_list must be >= 3 strictly increasing positive finite values")
    omega_cap = _positive(omega_cap, "omega_cap")
    if omega_cap < 2.0 * s_list[-1]:
        raise ValueError("omega_cap must be well above max(s_list)")
    if f.kind == "bspline" and f.order != n:
        raise ValueError(f"source has spline order {f.order}, expected {n}")
    pair = split_source(f)
    om, w = composite_rule(s_list[0], omega_cap, s_list[1:], 4.0 * medium.c_max, nodes=8)
    amps = _endpoint_amplitudes(pair, medium, om.reshape(-1, 8), nodes=8)
    integrand = np.abs(amps["minus", False]) ** 2 + np.abs(amps["plus", False]) ** 2
    segments = np.add.reduceat(w * integrand.ravel(), np.searchsorted(om, s_list))
    T = np.cumsum(segments[::-1])[::-1]
    bad = (T <= 0) | ~np.isfinite(T)
    if np.any(bad):
        raise ValueError(f"tail integral degenerate (underflow) at s = {s_list[bad].tolist()}")
    slope, _, r2 = fit_loglog(s_list, T)
    if csv_path is not None:
        write_tail_csv(csv_path, s_list, T)
    return slope, r2


def endpoint_amplitude_bound(f, medium, omega):
    """Both sides of the explicit endpoint amplitude inequality, and its
    scale: ``endpoint_amplitude_bound_many`` of one draw, as a tuple
    (lhs_minus, rhs_minus, lhs_plus, rhs_plus, scale_minus, scale_plus)."""
    return tuple(endpoint_amplitude_bound_many([(f, medium, omega)])[0].tolist())


def endpoint_amplitude_bound_many(draws):
    """Both sides of the explicit endpoint amplitude inequality, and its
    scale, for each draw (f, medium, omega).

    Returns one row (lhs_minus, rhs_minus, lhs_plus, rhs_plus,
    scale_minus, scale_plus) a draw, where lhs = omega^2 |u(-+1, omega)|^2
    and rhs is the squared triangle bound with the layered coefficients
    on the half-line transform moduli; lhs <= rhs is exact mathematics.
    The scale is sqrt(rhs) with each |fhat_side| replaced by the
    ||f_side||_L1 that bounds it.

    One pass over the draws' rules (``forward._draw_sums``) serves all
    three: lhs is the Green's-kernel quadrature summed per draw, not the
    transforms it is checked against, and each side's transforms and L1
    norm are summed over the nodes of that half of the rule.
    """
    draws = list(draws)
    fields, fts, l1 = _draw_sums(draws, [-1.0, 1.0], (False,))
    rows = []
    for (_, medium, omega), ((u_minus, u_plus),), ft, norms in zip(
            draws, fields.tolist(), fts.tolist(), l1.tolist()):
        rhs, scale = {"minus": 0.0, "plus": 0.0}, {"minus": 0.0, "plus": 0.0}
        for e, coeff, side, rate, _ in _endpoint_rows(medium):
            s = _HALVES.index(side)
            # fhat_side(-rate omega), with rate = +-c_side
            rhs[e] += abs(coeff) * abs(ft[s][0 if rate < 0 else 1])
            scale[e] += abs(coeff) * norms[s]
        rows.append((omega ** 2 * abs(u_minus) ** 2, rhs["minus"] ** 2,
                     omega ** 2 * abs(u_plus) ** 2, rhs["plus"] ** 2,
                     scale["minus"], scale["plus"]))
    return np.array(rows, dtype=float).reshape(-1, 6)


def data_energy_constant(sampler, medium, omega_cap, trials, seed, csv_path=None):
    """Empirical constant of the source-energy bound: the largest ratio
    ||f||^2 / int_0^cap omega^2 (|u(-1)|^2 + |u(1)|^2) d omega over
    sampled sources.  Returns (constant, per-trial ratios)."""
    omega_cap = _positive(omega_cap, "omega_cap")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        f = sampler(rng)
        num = l2_norm_sq(f)
        den = data_energy(f, medium, omega_cap, n_quad=8).I.real
        if den <= 1e-280 * max(num, 1.0):
            raise ZeroDivisionError("data energy underflow: near-zero source draw")
        ratios.append(num / den)
    if csv_path is not None:
        write_ratio_csv(csv_path, ratios)
    return max(ratios), ratios


def write_tail_csv(path, s_vals, T_vals):
    _write_csv(path, ["s", "T", "logs", "logT"],
               ((s, t, np.log(s), np.log(t)) for s, t in zip(s_vals, T_vals)))


def write_ratio_csv(path, ratios):
    _write_csv(path, ["trial", "ratio"], enumerate(ratios))
