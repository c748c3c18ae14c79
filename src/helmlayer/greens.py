"""Closed-form Green's function of the two-layer interval problem.

``green_eval`` implements the explicit two-branch kernel g(x, y) solving

    g'' + kappa(x)^2 g = -delta(x - y)

with outgoing behaviour e^{+i kappa1 x} as x -> +1 and e^{-i kappa2 x}
as x -> -1.  A source left of the interface is the mirror image of one
right of it, so every routine here, the oracles included, works for both
signs of y in one frame: ``_frame``'s X = sig x, Y = sig y, where the
source sits at Y > 0.  The layer amplitudes (direct, reflected and
transmitted waves) are written once, in ``_amplitudes``, for the kernel,
its derivative, the closed-form coefficients and the endpoint table, and
the waves once, in ``_waves``: ``_green`` takes them over a table of
frequencies, ``_green_runs`` over point pairs whose media and
frequencies change from run to run (a batch of draws).  The
oracles stay independent of them: ``green_coeffs_via_linear_system``
solves the 4x4 continuity system, ``eval_from_coeffs`` evaluates its
amplitudes piecewise, and ``interface_residuals`` measures how well the
closed form meets the continuity and jump conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _check_omega(omega):
    """Reject an omega, or an array of them, that is not positive and finite."""
    om = np.asarray(omega, dtype=float)
    if not ((om > 0.0) & (om < np.inf)).all():
        raise ValueError(f"omega must be positive and finite, got {omega}")


def _check_args(y, omega):
    """Reject a bad omega (scalar or array) and a source point off
    (-1, 1) \\ {0} or not finite."""
    _check_omega(omega)
    ay = np.abs(np.asarray(y, dtype=float))
    if (ay == 0.0).any():
        raise ValueError("source point y = 0 sits on the interface")
    if not (ay < 1.0).all():
        raise ValueError("source point must lie in (-1, 1)")


def _check_eval(x, y, omega):
    """``_check_args``, and reject an evaluation point off [-1, 1]."""
    _check_args(y, omega)
    if not (np.abs(np.asarray(x, dtype=float)) <= 1.0).all():
        raise ValueError("evaluation point outside [-1, 1]")


def _frame(y, medium):
    """``(sig, cs, co)`` of a source at y: sig = +1 right of the interface,
    -1 left of it (on it, where both forms agree, from the left), and the
    speed factors of its own layer and of the other.  In X = sig x,
    Y = sig y the source sits at Y > 0; d/dx = sig d/dX."""
    return (1.0, medium.c1, medium.c2) if y > 0 else (-1.0, medium.c2, medium.c1)


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


def _span(mask):
    """None for an empty mask, a slice for one whose true entries are
    contiguous (the sorted nodes of a rule on one side), else the mask:
    a slice reads and writes rows as plain strided copies."""
    idx = mask.nonzero()[0]
    if idx.size == 0:
        return None
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(idx[0], idx[-1] + 1)
    return mask


def _waves(out, X, Y, own, sig, ks, ko, amps, derivs):
    """Write the waves of the sources ``own`` into ``out[i]``, g where
    ``derivs[i]`` is false and its x-derivative where it is true: in
    their ``_frame`` (X = sig x, Y = sig y > 0), a direct and a reflected
    wave on their own side (X >= 0) and a transmitted wave on the other.
    The exponentials are formed once for every entry of ``derivs``.

    The wavenumbers ks, ko and the amplitudes ``amps`` (``_amplitudes``'
    three) are either one per point pair (1-D) or shared by all pairs (a
    scalar, or a column of frequencies whose axes lead ``out[i]``'s).
    """
    def at(v, idx):
        return v[idx] if np.ndim(v) == 1 else v

    direct_amp, refl_amp, trans_amp = amps
    near, far = _span(own & (X >= 0)), _span(own & (X < 0))
    last = len(derivs) - 1  # the last entry may overwrite the exponentials
    if near is not None:
        Xn, Yn, k = X[near], Y[near], at(ks, near)
        direct = 1j * k * np.abs(Xn - Yn)
        np.exp(direct, out=direct)
        reflected = 1j * k * (Xn + Yn)
        np.exp(reflected, out=reflected)
        for i, deriv in enumerate(derivs):
            wave, refl = (direct, reflected) if i == last else (direct.copy(), reflected.copy())
            wave *= at(direct_amp, near)
            if deriv:
                wave *= np.sign(Xn - Yn)
            refl *= at(refl_amp, near)
            wave += refl
            if deriv:
                wave *= sig * 1j * k
            out[i][..., near] = wave
    if far is not None:
        Xf, Yf = X[far], Y[far]
        phase = at(ks, far) * Yf
        phase -= at(ko, far) * Xf
        transmitted = 1j * phase
        np.exp(transmitted, out=transmitted)
        for i, deriv in enumerate(derivs):
            trans = transmitted if i == last else transmitted.copy()
            trans *= at(trans_amp, far)
            if deriv:
                trans *= -sig * 1j * at(ko, far)
            out[i][..., far] = trans


def _green(x, y, medium, omega, deriv=False):
    """g(x, y; omega), or its x-derivative, with the axes of omega first
    (``_waves`` in each source's frame)."""
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xr, yr = xb.ravel(), yb.ravel()
    lead = np.shape(omega)
    om = np.asarray(omega, dtype=float)[..., None] if lead else omega
    out = np.empty((1,) + lead + (xr.size,), dtype=complex)
    right = yr > 0
    for own, sig in ((right, 1.0), (~right, -1.0)):
        if not own.any():
            continue
        sig, cs, co = _frame(sig, medium)  # a source at y = sig has the group's frame
        ks, ko = cs * om, co * om
        _waves(out, sig * xr, sig * yr, own, sig, ks, ko, _amplitudes(ks, ko), (deriv,))
    out = out[0].reshape(lead + xb.shape)
    return out[()] if out.ndim == 0 else out


def _green_runs(xs, y, media, omegas, counts, derivs):
    """g(x, y) and its x-derivative at point pairs that come in runs:
    run r is ``counts[r]`` consecutive sources of the 1-D y, in
    ``media[r]`` at ``omegas[r]``.  Entry [j, i] holds, for each source,
    g where ``derivs[i]`` is false and g_x where it is true, at the
    point ``xs[j]`` (each x broadcasts with y).

    Each run's wavenumbers and amplitudes are formed once, with the
    scalar arithmetic of ``_green`` at one frequency, and spread over its
    sources, so every pair gets the doubles of ``_green`` at its run's
    medium and frequency.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty((len(xs), len(derivs), y.size), dtype=complex)
    right = y > 0
    for own, sig in ((right, 1.0), (~right, -1.0)):
        if not own.any():
            continue
        runs = []
        for medium, om in zip(media, omegas):
            _, cs, co = _frame(sig, medium)
            ks, ko = cs * om, co * om
            runs.append((ks, ko, *_amplitudes(ks, ko)))
        ks, ko, *amps = (np.repeat(col, counts) for col in zip(*runs))
        for x, out_x in zip(xs, out):
            X = sig * np.broadcast_to(np.asarray(x, dtype=float), y.shape)
            _waves(out_x, X, sig * y, own, sig, ks, ko, amps, derivs)
    return out


def green_eval(x, y, medium, omega):
    """Green's function g(x, y) for x in [-1, 1], y in (-1, 1) \\ {0}.

    Broadcasts over x and y; sources on both sides of the interface may
    be mixed within one call.
    """
    _check_eval(x, y, omega)
    return _green(x, y, medium, omega)


def green_dx(x, y, medium, omega):
    """Analytic x-derivative of g(x, y); continuous at x = 0, jumps at x = y."""
    _check_eval(x, y, omega)
    return _green(x, y, medium, omega, deriv=True)


@dataclass(frozen=True)
class GreenCoeffs:
    """Layer amplitudes for a fixed source point and frequency: in the
    source's ``_frame``, with ks = cs omega and ko = co omega,
    g = A e^{i ks X} (X > Y), B e^{i ks X} + C e^{-i ks X} (0 < X < Y)
    and D e^{-i ko X} (X < 0)."""

    A: complex
    B: complex
    C: complex
    D: complex


def green_coeffs_closed(y, medium, omega):
    """Closed-form layer amplitudes (solution of the continuity system)."""
    _check_args(y, omega)
    sig, cs, co = _frame(y, medium)
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
    for side, sig, near, far in (("right", 1.0, "plus", "minus"), ("left", -1.0, "minus", "plus")):
        sig, cs, co = _frame(sig, medium)
        direct, refl, trans = (amp.imag for amp in _amplitudes(cs, co))
        rows += [(near, refl, side, sig * cs, cs),
                 (near, direct, side, -sig * cs, cs),
                 (far, trans, side, sig * cs, co)]
    return rows


def green_coeffs_via_linear_system(y, medium, omega):
    """Layer amplitudes from a dense solve of the 4x4 continuity system.

    Independent of the closed form: assembles value/derivative matching
    at the interface and at the source point (derivative jump -1) in the
    source's ``_frame`` and eliminates.
    """
    _check_args(y, omega)
    sig, cs, co = _frame(y, medium)
    ks, ko, Y = cs * omega, co * omega, sig * y
    if abs(ks + ko) < 1e-14:
        raise np.linalg.LinAlgError("degenerate medium: |kappa1 + kappa2| below 1e-14")
    ep, em = np.exp(1j * ks * Y), np.exp(-1j * ks * Y)
    M = np.array([
        [ep, -ep, -em, 0.0],  # continuity at X = Y
        [1j * ks * ep, -1j * ks * ep, 1j * ks * em, 0.0],  # G'(Y+) - G'(Y-) = -1
        [0.0, 1.0, 1.0, -1.0],  # continuity at X = 0
        [0.0, 1j * ks, -1j * ks, 1j * ko],  # derivative continuity at X = 0
    ], dtype=complex)
    return GreenCoeffs(*np.linalg.solve(M, np.array([0.0, -1.0, 0.0, 0.0], dtype=complex)))


def eval_from_coeffs(coeffs, x, y, medium, omega):
    """Piecewise evaluation of g from layer amplitudes."""
    _check_eval(x, y, omega)
    sig, cs, co = _frame(y, medium)
    ks, ko, Y = cs * omega, co * omega, sig * y
    X = sig * np.asarray(x, dtype=float)
    outer = coeffs.A * np.exp(1j * ks * X)
    inner = coeffs.B * np.exp(1j * ks * X) + coeffs.C * np.exp(-1j * ks * X)
    trans = coeffs.D * np.exp(-1j * ko * X)
    out = np.where(X > Y, outer, np.where(X >= 0, inner, trans))
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
    """One-sided limits of the closed form against the defining conditions,
    in the source's ``_frame``."""
    _check_args(y, omega)
    sig, cs, co = _frame(y, medium)
    ks, ko, Y = cs * omega, co * omega, sig * y
    c = green_coeffs_closed(y, medium, omega)
    ep, em = np.exp(1j * ks * Y), np.exp(-1j * ks * Y)
    g_out, g_in = c.A * ep, c.B * ep + c.C * em
    dg_out, dg_in = 1j * ks * c.A * ep, 1j * ks * (c.B * ep - c.C * em)
    g0_in, g0_tr = c.B + c.C, c.D
    dg0_in, dg0_tr = 1j * ks * (c.B - c.C), -1j * ko * c.D
    return InterfaceResiduals(
        cont_at_zero=float(np.abs(g0_in - g0_tr)),
        dcont_at_zero=float(np.abs(dg0_in - dg0_tr)),
        cont_at_y=float(np.abs(g_out - g_in)),
        jump_at_y=float(np.abs((dg_out - dg_in) + 1.0)),
    )
