"""Half-line transforms and multi-frequency data-energy functionals.

The endpoint data of the layered problem is, frequency by frequency, an
explicit linear combination of half-line Fourier transforms of the split
source (convention fhat(xi) = int e^{-i xi y} f(y) dy).  This module
provides those transforms, the band-energy functionals built from them,
their analytic continuation in the band limit, the discrete data norm
used as the noise level, and the tail-decay and energy-constant
experiments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .forward import boundary_sweep, forward_field, source_rule
from .greens import _endpoint_rows
from .model import FrequencyGrid, SourcePair, l2_norm_sq, split_source
from .quadrature import composite_rule

__all__ = [
    "HalflineFT",
    "DataEnergy",
    "halfline_ft",
    "halfline_ft_many",
    "plancherel_residual",
    "endpoint_amplitude",
    "data_energy",
    "data_energy_analytic",
    "data_energy_from_sweep",
    "trapezoid_weights",
    "epsilon_norm",
    "tail_decay_fit",
    "endpoint_amplitude_bound",
    "data_energy_constant",
    "fit_loglog",
    "fit_loglog_slope",
    "write_tail_csv",
    "write_ratio_csv",
]


def _side_source(pair, side):
    if side == "right":
        return pair.f1
    if side == "left":
        return pair.f2
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def halfline_ft(pair, side, xi, nodes=16, base_panels=8):
    """fhat_side(xi) = int e^{-i xi y} f_side(y) dy over the side's interval."""
    return complex(halfline_ft_many(pair, side, xi, nodes=nodes, base_panels=base_panels))


def halfline_ft_many(pair, side, xis, nodes=16, base_panels=8, chunk=4096,
                     conjugate_source=False):
    """Half-line transform on an array of (possibly complex) arguments.

    One quadrature rule resolved at max |Re xi| serves all arguments;
    evaluation is chunked to bound the size of the phase matrix.  With
    ``conjugate_source`` the pointwise conjugate of the source is
    transformed instead (used by the analytic continuation of the data
    energy, where it replaces conjugation of the non-analytic modulus).
    """
    xis = np.asarray(xis, dtype=complex)
    src = _side_source(pair, side)
    if src.support is None or xis.size == 0:
        return np.zeros(xis.shape, dtype=complex)
    scale = float(np.max(np.abs(xis.real)))
    y, w = source_rule(src, scale, nodes=nodes, base_panels=base_panels)
    fv = src(y)
    if conjugate_source:
        fv = np.conj(fv)
    fw = w * fv
    flat = xis.ravel()
    res = np.empty(flat.shape, dtype=complex)
    for i in range(0, len(flat), chunk):
        res[i:i + chunk] = np.exp(-1j * np.outer(flat[i:i + chunk], y)) @ fw
    return res.reshape(xis.shape)


@dataclass(frozen=True)
class HalflineFT:
    """One evaluated half-line transform value."""

    side: str
    xi: float
    value: complex

    @classmethod
    def compute(cls, pair, side, xi, **kw):
        return cls(side, xi, halfline_ft(pair, side, xi, **kw))


def plancherel_residual(pair, xi_max, n_xi, nodes=16):
    """|  ||f1||^2 + ||f2||^2  -  (1/2pi) int_{-xi_max}^{xi_max} (|fhat1|^2 + |fhat2|^2) |.

    The transform-side integral is a trapezoid rule on n_xi equispaced
    arguments; the tail beyond xi_max is the caller's responsibility.
    """
    if n_xi < 3:
        raise ValueError("need at least 3 transform samples")
    xis = np.linspace(-xi_max, xi_max, n_xi)
    total = 0.0
    for side in ("right", "left"):
        vals = halfline_ft_many(pair, side, xis, nodes=nodes)
        total += float(np.trapezoid(np.abs(vals) ** 2, xis))
    norms = l2_norm_sq(pair.f1, nodes=nodes) + l2_norm_sq(pair.f2, nodes=nodes)
    return abs(norms - total / (2.0 * np.pi))


def endpoint_amplitude(pair, medium, omegas, endpoint, nodes=16, base_panels=8,
                       conjugate=False):
    """F_endpoint(omega) on an array of (possibly complex) frequencies.

    For real omega, |F(omega)| = omega * |u(endpoint, omega)|.  With
    ``conjugate`` the kernel-conjugate partner G is evaluated (all phases
    flipped, source conjugated); F*G restricted to real omega is |F|^2.
    """
    if endpoint not in ("minus", "plus"):
        raise ValueError(f"endpoint must be 'minus' or 'plus', got {endpoint!r}")
    omegas = np.asarray(omegas, dtype=complex)
    sgn = -1.0 if conjugate else 1.0
    out = np.zeros(omegas.shape, dtype=complex)
    for e, coeff, side, rate, phase in _endpoint_rows(medium):
        if e != endpoint:
            continue
        vals = halfline_ft_many(pair, side, -sgn * rate * omegas, nodes=nodes,
                                base_panels=base_panels, conjugate_source=conjugate)
        out = out + coeff * np.exp(sgn * 1j * phase * omegas) * vals
    return out


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
    explicit endpoint representations, for real s > 0."""
    if not np.isreal(s) or s <= 0:
        raise ValueError("band limit s must be a positive real; use data_energy_analytic otherwise")
    s = float(np.real(s))
    pair = split_source(f)
    om, w = composite_rule(0.0, s, osc_rate=4.0 * medium.c_max, nodes=n_quad)
    i1 = float(np.sum(w * np.abs(endpoint_amplitude(pair, medium, om, "minus", nodes=n_quad)) ** 2))
    i2 = float(np.sum(w * np.abs(endpoint_amplitude(pair, medium, om, "plus", nodes=n_quad)) ** 2))
    return DataEnergy(complex(s), complex(i1), complex(i2))


def data_energy_analytic(f, medium, s, n_quad=16):
    """Analytic continuation of the band energy to complex s, Re s > 0.

    Substituting omega = s t maps the band to t in (0, 1); the modulus
    squared |F|^2 is continued as the product F(st) G(st) with G the
    kernel-conjugate amplitude, which coincides with |F|^2 for real s.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError("continuation requires Re(s) > 0")
    pair = split_source(f)
    t, w = composite_rule(0.0, 1.0, osc_rate=4.0 * medium.c_max * abs(s), nodes=n_quad)
    om = s * t
    vals = []
    for endpoint in ("minus", "plus"):
        F = endpoint_amplitude(pair, medium, om, endpoint, nodes=n_quad)
        G = endpoint_amplitude(pair, medium, om, endpoint, nodes=n_quad, conjugate=True)
        vals.append(s * np.sum(w * F * G))
    return DataEnergy(s, complex(vals[0]), complex(vals[1]))


def data_energy_from_sweep(f, medium, s, n_quad=16):
    """Band energy through the forward solver: Gauss-Legendre nodes in
    omega, endpoint values from boundary_sweep, integrand omega^2 |u|^2."""
    if s <= 0:
        raise ValueError("band limit s must be positive")
    om, w = composite_rule(0.0, s, osc_rate=4.0 * medium.c_max, nodes=n_quad)
    data = boundary_sweep(f, medium, FrequencyGrid(om, float(s)), nodes=n_quad)
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


def tail_decay_fit(f, medium, n, s_list, omega_cap, d_omega=0.15, nodes=8,
                   csv_path=None):
    """Fit the decay exponent of the high-frequency tail
    T(s) = int_s^cap omega^2 (|u(-1)|^2 + |u(1)|^2) d omega.

    For a spline source of order n the exponent approaches -(2n - 1).
    The integrand is sampled densely in omega through the endpoint
    amplitude representation and T is accumulated by partial trapezoid
    sums.  Returns (slope, r2) of log T against log s.
    """
    s_list = np.asarray(s_list, dtype=float)
    if len(s_list) < 3 or not np.all(np.diff(s_list) > 0) or s_list[0] <= 0:
        raise ValueError("s_list must be >= 3 strictly increasing positive values")
    if omega_cap < 2.0 * s_list[-1]:
        raise ValueError("omega_cap must be well above max(s_list)")
    if f.kind == "bspline" and f.order != n:
        raise ValueError(f"source has spline order {f.order}, expected {n}")
    pair = split_source(f)
    om = np.arange(float(s_list[0]), float(omega_cap) + d_omega, d_omega)
    integrand = (np.abs(endpoint_amplitude(pair, medium, om, "minus", nodes=nodes)) ** 2
                 + np.abs(endpoint_amplitude(pair, medium, om, "plus", nodes=nodes)) ** 2)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(om))])
    total = cum[-1]
    T = total - np.interp(s_list, om, cum)
    bad = (T <= 0) | ~np.isfinite(T)
    if np.any(bad):
        raise ValueError(f"tail integral degenerate (underflow) at s = {s_list[bad].tolist()}")
    slope, _, r2 = fit_loglog(s_list, T)
    if csv_path is not None:
        write_tail_csv(csv_path, s_list, T)
    return slope, r2


def endpoint_amplitude_bound(f, medium, omega, nodes=16, base_panels=16):
    """Both sides of the explicit endpoint amplitude inequality.

    Returns (lhs_minus, rhs_minus, lhs_plus, rhs_plus) where
    lhs = omega^2 |u(-+1, omega)|^2 and rhs is the squared triangle
    bound with the layered coefficients on the half-line transform
    moduli; lhs <= rhs is exact mathematics, so both sides are resolved
    a notch finer than the solver defaults.
    """
    pair = split_source(f)
    lhs_minus = omega ** 2 * abs(forward_field(f, medium, omega, -1.0, nodes=nodes,
                                               base_panels=base_panels)) ** 2
    lhs_plus = omega ** 2 * abs(forward_field(f, medium, omega, 1.0, nodes=nodes,
                                              base_panels=base_panels)) ** 2
    rhs = {"minus": 0.0, "plus": 0.0}
    for e, coeff, side, rate, _ in _endpoint_rows(medium):
        rhs[e] += abs(coeff) * abs(halfline_ft(pair, side, -rate * omega,
                                               nodes=nodes, base_panels=base_panels))
    rhs = {e: tot ** 2 for e, tot in rhs.items()}
    return lhs_minus, rhs["minus"], lhs_plus, rhs["plus"]


def data_energy_constant(sampler, medium, omega_cap, trials, seed, n_quad=8,
                         csv_path=None):
    """Empirical constant of the source-energy bound: the largest ratio
    ||f||^2 / int_0^cap omega^2 (|u(-1)|^2 + |u(1)|^2) d omega over
    sampled sources.  Returns (constant, per-trial ratios)."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        f = sampler(rng)
        num = l2_norm_sq(f)
        den = float(np.real(data_energy(f, medium, omega_cap, n_quad=n_quad).I))
        if den <= 1e-280 * max(num, 1.0):
            raise ZeroDivisionError("data energy underflow: near-zero source draw")
        ratios.append(num / den)
    if csv_path is not None:
        write_ratio_csv(csv_path, ratios)
    return max(ratios), ratios


def write_tail_csv(path, s_vals, T_vals):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "T", "logs", "logT"])
        for s, t in zip(s_vals, T_vals):
            writer.writerow([f"{v:.17g}" for v in (s, t, np.log(s), np.log(t))])


def write_ratio_csv(path, ratios):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "ratio"])
        for i, r in enumerate(ratios):
            writer.writerow([str(i), f"{r:.17g}"])
