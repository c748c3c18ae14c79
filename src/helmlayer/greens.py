"""Closed-form Green's function of the two-layer interval problem.

``green_eval`` implements the explicit two-branch kernel g(x, y) solving

    g'' + kappa(x)^2 g = -delta(x - y)

with outgoing behaviour e^{+i kappa1 x} as x -> +1 and e^{-i kappa2 x}
as x -> -1.  Its layer amplitudes (the direct wave and the waves
reflected and transmitted at the interface) are written once, in
``_amplitudes``; the kernel, its derivative, the closed-form
coefficients and the endpoint table of the half-line representation
are all read from it.  ``green_coeffs_via_linear_system`` rebuilds the
layer amplitudes A, B, C, D independently by solving the 4x4 continuity
system (value and derivative matching at x = 0, value continuity and
unit derivative jump at x = y), and ``interface_residuals`` measures how
well the closed form satisfies those conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import wavenumbers

__all__ = [
    "GreenCoeffs",
    "InterfaceResiduals",
    "green_eval",
    "green_dx",
    "green_coeffs_closed",
    "green_coeffs_via_linear_system",
    "eval_from_coeffs",
    "interface_residuals",
]


def _check_args(y, omega):
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    y = np.asarray(y, dtype=float)
    if np.any(y == 0.0):
        raise ValueError("source point y = 0 sits on the interface")
    if np.any(np.abs(y) >= 1.0):
        raise ValueError("source point must lie in (-1, 1)")


def _amplitudes(ks, ko):
    """The layer amplitude table.

    For a unit source in the layer of wavenumber ks facing the layer of
    wavenumber ko: the amplitudes of the direct, reflected and
    transmitted waves,

        i/(2 ks),   i/(2 ks) * R,   i/(2 ks) * T,
        R = (ks - ko)/(ks + ko),    T = 2 ks/(ks + ko),

    each written out as one closed form.
    """
    return 1j / (2.0 * ks), 1j * (ks - ko) / (2.0 * ks * (ks + ko)), 1j / (ks + ko)


def _green(x, y, medium, omega, deriv=False):
    """g(x, y; omega), or its x-derivative, with the axes of omega first.

    In the mirrored coordinates X = sig x, Y = sig y (sig = +1 for a
    source right of the interface, -1 left of it) every source sits at
    Y > 0: a direct and a reflected wave on its own side (X >= 0), a
    transmitted wave on the other.  d/dx = sig d/dX.  A source on the
    interface, where both forms agree, is taken from the left.
    """
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


def green_eval(x, y, medium, omega):
    """Green's function g(x, y) for x in [-1, 1], y in (-1, 1) \\ {0}.

    Broadcasts over x and y; sources on both sides of the interface may
    be mixed within one call.
    """
    _check_args(y, omega)
    return _green(x, y, medium, omega)


def green_dx(x, y, medium, omega):
    """Analytic x-derivative of g(x, y); continuous at x = 0, jumps at x = y."""
    _check_args(y, omega)
    return _green(x, y, medium, omega, deriv=True)


@dataclass(frozen=True)
class GreenCoeffs:
    """Layer amplitudes for a fixed source point and frequency.

    For y > 0: g = A e^{i k1 x} (x > y), B e^{i k1 x} + C e^{-i k1 x}
    (0 < x < y), D e^{-i k2 x} (x < 0).  For y < 0, mirrored:
    A e^{-i k2 x} (x < y), B e^{-i k2 x} + C e^{i k2 x} (y < x < 0),
    D e^{i k1 x} (x > 0).
    """

    A: complex
    B: complex
    C: complex
    D: complex


def green_coeffs_closed(y, medium, omega):
    """Closed-form layer amplitudes (solution of the continuity system)."""
    _check_args(y, omega)
    sig, cs, co = (1.0, medium.c1, medium.c2) if y > 0 else (-1.0, medium.c2, medium.c1)
    ks = cs * omega
    direct_amp, refl_amp, trans_amp = _amplitudes(ks, co * omega)
    ey, em = np.exp(1j * ks * sig * y), np.exp(-1j * ks * sig * y)
    return GreenCoeffs(A=refl_amp * ey + direct_amp * em, B=refl_amp * ey,
                       C=direct_amp * ey, D=trans_amp * ey)


def _endpoint_rows(medium):
    """The omega-independent endpoint table, from the same amplitudes.

    omega * u(e, omega) = i * sum over the rows (e, coeff, side, rate,
    phase) of endpoint e ("minus" or "plus") of
    coeff * e^{i phase omega} * int e^{i rate omega y} f_side(y) dy,
    where coeff is a wave amplitude of ``_amplitudes`` at unit
    frequency divided by i.  Each side has a reflected and a direct row
    at its own endpoint and a transmitted row at the other.
    """
    rows = []
    for side, sig, cs, co, near, far in (("right", 1.0, medium.c1, medium.c2, "plus", "minus"),
                                         ("left", -1.0, medium.c2, medium.c1, "minus", "plus")):
        direct, refl, trans = (amp.imag for amp in _amplitudes(cs, co))
        rows += [(near, refl, side, sig * cs, cs),
                 (near, direct, side, -sig * cs, cs),
                 (far, trans, side, sig * cs, co)]
    return rows


def green_coeffs_via_linear_system(y, medium, omega):
    """Layer amplitudes from a dense solve of the 4x4 continuity system.

    Independent of the closed form: assembles value/derivative matching
    at the interface and at the source point (derivative jump -1) and
    eliminates.
    """
    _check_args(y, omega)
    k1, k2 = wavenumbers(medium, omega)
    if abs(k1 + k2) < 1e-14:
        raise np.linalg.LinAlgError("degenerate medium: |kappa1 + kappa2| below 1e-14")
    M = np.zeros((4, 4), dtype=complex)
    rhs = np.zeros(4, dtype=complex)
    if y > 0:
        ep, em = np.exp(1j * k1 * y), np.exp(-1j * k1 * y)
        # continuity at x = y
        M[0] = [ep, -ep, -em, 0.0]
        # derivative jump at x = y: g'(y+) - g'(y-) = -1
        M[1] = [1j * k1 * ep, -1j * k1 * ep, 1j * k1 * em, 0.0]
        rhs[1] = -1.0
        # continuity at x = 0
        M[2] = [0.0, 1.0, 1.0, -1.0]
        # derivative continuity at x = 0
        M[3] = [0.0, 1j * k1, -1j * k1, 1j * k2]
    else:
        ep, em = np.exp(-1j * k2 * y), np.exp(1j * k2 * y)
        M[0] = [ep, -ep, -em, 0.0]
        M[1] = [1j * k2 * ep, -1j * k2 * ep, 1j * k2 * em, 0.0]
        rhs[1] = -1.0
        M[2] = [0.0, 1.0, 1.0, -1.0]
        M[3] = [0.0, -1j * k2, 1j * k2, -1j * k1]
    sol = np.linalg.solve(M, rhs)
    return GreenCoeffs(*sol)


def eval_from_coeffs(coeffs, x, y, medium, omega):
    """Piecewise evaluation of g from layer amplitudes."""
    _check_args(y, omega)
    k1, k2 = wavenumbers(medium, omega)
    x = np.asarray(x, dtype=float)
    if y > 0:
        outer = coeffs.A * np.exp(1j * k1 * x)
        inner = coeffs.B * np.exp(1j * k1 * x) + coeffs.C * np.exp(-1j * k1 * x)
        trans = coeffs.D * np.exp(-1j * k2 * x)
        out = np.where(x > y, outer, np.where(x >= 0, inner, trans))
    else:
        outer = coeffs.A * np.exp(-1j * k2 * x)
        inner = coeffs.B * np.exp(-1j * k2 * x) + coeffs.C * np.exp(1j * k2 * x)
        trans = coeffs.D * np.exp(1j * k1 * x)
        out = np.where(x < y, outer, np.where(x <= 0, inner, trans))
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class InterfaceResiduals:
    """Absolute deviations from the continuity and jump conditions."""

    cont_at_zero: float
    dcont_at_zero: float
    cont_at_y: float
    jump_at_y: float  # |(g'(y+) - g'(y-)) + 1|

    @property
    def max(self):
        return max(self.cont_at_zero, self.dcont_at_zero, self.cont_at_y, self.jump_at_y)


def interface_residuals(y, medium, omega):
    """One-sided limits of the closed form against the defining conditions."""
    _check_args(y, omega)
    k1, k2 = wavenumbers(medium, omega)
    c = green_coeffs_closed(y, medium, omega)
    if y > 0:
        ep, em = np.exp(1j * k1 * y), np.exp(-1j * k1 * y)
        g_out, g_in = c.A * ep, c.B * ep + c.C * em
        dg_out, dg_in = 1j * k1 * c.A * ep, 1j * k1 * (c.B * ep - c.C * em)
        g0_in, g0_tr = c.B + c.C, c.D
        dg0_in, dg0_tr = 1j * k1 * (c.B - c.C), -1j * k2 * c.D
    else:
        ep, em = np.exp(-1j * k2 * y), np.exp(1j * k2 * y)
        g_out, g_in = c.A * ep, c.B * ep + c.C * em
        dg_out = -1j * k2 * c.A * ep
        dg_in = -1j * k2 * c.B * ep + 1j * k2 * c.C * em
        g0_in, g0_tr = c.B + c.C, c.D
        dg0_in, dg0_tr = -1j * k2 * (c.B - c.C), 1j * k1 * c.D
        # x = y approached from above lies in the inner region, from below in the outer
        g_out, g_in = g_in, g_out
        dg_out, dg_in = dg_in, dg_out
    return InterfaceResiduals(
        cont_at_zero=float(np.abs(g0_in - g0_tr)),
        dcont_at_zero=float(np.abs(dg0_in - dg0_tr)),
        cont_at_y=float(np.abs(g_out - g_in)),
        jump_at_y=float(np.abs((dg_out - dg_in) + 1.0)),
    )
