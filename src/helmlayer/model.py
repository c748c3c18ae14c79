"""Media, frequency grids, and compactly supported test sources.

The domain is the interval (-1, 1) with a material interface at x = 0:
sound speed factor ``c1`` on the right half, ``c2`` on the left, so the
wavenumber at angular frequency ``omega`` is ``c1*omega`` for x > 0 and
``c2*omega`` for x < 0.  Sources are complex valued and vanish outside a
closed sub-interval [a, b] strictly inside (-1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import composite_rule

__all__ = [
    "Medium",
    "FrequencyGrid",
    "SourceSpec",
    "HalfSource",
    "SourcePair",
    "wavenumbers",
    "split_source",
    "l2_norm_sq",
]

SOURCE_KINDS = ("bump", "bspline", "modulated_bump", "grid")


@dataclass(frozen=True)
class Medium:
    """Piecewise-constant speed factors: c1 for x > 0, c2 for x < 0."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError(f"speed factors must be positive, got c1={self.c1}, c2={self.c2}")

    @property
    def c_max(self):
        return max(self.c1, self.c2)


def wavenumbers(medium, omega):
    """Layer wavenumbers (kappa1, kappa2) = (c1*omega, c2*omega)."""
    if omega < 0:
        raise ValueError(f"omega must be non-negative, got {omega}")
    return medium.c1 * omega, medium.c2 * omega


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing positive frequencies bounded by the band limit K."""

    omegas: np.ndarray
    K: float

    def __post_init__(self):
        om = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if om.size == 0:
            raise ValueError("frequency grid must be non-empty")
        if not np.all(om[1:] > om[:-1]):  # no difference, which may overflow
            raise ValueError("frequencies must be strictly increasing")
        if om[0] <= 0:
            raise ValueError("frequencies must be strictly positive")
        if om[-1] > self.K + 1e-12 * self.K:
            raise ValueError(f"largest frequency {om[-1]} exceeds band limit K={self.K}")
        om.setflags(write=False)
        object.__setattr__(self, "omegas", om)

    @classmethod
    def uniform(cls, K, n_omega, omega_floor=None):
        """n_omega equispaced frequencies from omega_floor (default K/n_omega) to K."""
        if n_omega < 1:
            raise ValueError("n_omega must be at least 1")
        if omega_floor is None:
            omega_floor = K / n_omega
        if not 0 < omega_floor <= K:
            raise ValueError(f"omega_floor must lie in (0, K], got {omega_floor}")
        return cls(np.linspace(omega_floor, K, n_omega), K)

    def __len__(self):
        return len(self.omegas)


def _bump_profile(t):
    # exp(1 - 1/(1-t^2)) on |t| < 1, normalized to peak 1 at t = 0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out


def _bspline_basis(t, k, x):
    """The degree-k B-spline on the knots t[k:2k+2], at the points x.

    t is the knot vector extended by k copies of t[k] - 1 and of
    t[2k+1] + 1 on either side, and its knots are at least the smallest
    normal double apart, so no step overflows.  The Cox-de Boor
    recurrence runs in the order of scipy's ``BSpline.basis_element``
    evaluation, so the values are the same doubles; points outside
    [t[k], t[2k+1]] (or not finite) give 0.
    """
    lo, hi = t[k], t[2 * k + 1]
    xc = np.minimum(np.maximum(x, lo), hi).ravel()
    ell = k + np.searchsorted(t[k + 1:2 * k + 1], xc, side="right")
    # row i holds t[ell + 1 - k + i]; level j reads t[ell + 1 .. ell + j]
    # as the right knots and t[ell + 1 - j .. ell] as the left ones
    tt = t[ell + np.arange(1 - k, k + 1)[:, None]]
    right, left = tt - xc, xc - tt
    h = np.ones((1, len(xc)))
    for j in range(1, k + 1):
        w = h / (tt[k:k + j] - tt[k - j:k])
        h = np.zeros((j + 1, len(xc)))
        h[:j] = w * right[k:k + j]
        h[1:] += w * left[k - j:k]
    vals = h[2 * k - ell, np.arange(len(xc))].reshape(x.shape)
    vals[~((x >= lo) & (x <= hi))] = 0.0
    return vals


@dataclass(frozen=True)
class SourceSpec:
    """A compactly supported complex source on (-1, 1).

    Kinds:
      bump            smooth plateau exp(1 - 1/(1-t^2)) rescaled to [a, b]
      bspline         uniform B-spline of order n (degree n-1) on [a, b];
                      order 1 is the indicator, order 2 the hat, order 3
                      the C^1 quadratic bump
      modulated_bump  bump times exp(i * mod_freq * x)
      grid            piecewise-linear interpolant of complex samples; a
                      block of sample columns, one per data set (the
                      estimates of a block solve, see ``inverse``), is
                      read at its nodes only

    All kinds are scaled by the complex ``amplitude`` and evaluate to
    exactly 0 outside [a, b].

    A B-spline is evaluated in numpy by the Cox-de Boor recurrence on
    its uniform knots, with scipy's order of operations, so its values
    are bit for bit those of ``scipy.interpolate.BSpline.basis_element``
    (the tests check this); it is then divided by its value at the
    midpoint.  A support too narrow for knots at least the smallest
    normal double apart is rejected.
    """

    kind: str
    a: float
    b: float
    amplitude: complex = 1.0 + 0.0j
    order: int = 0
    mod_freq: float = 0.0
    x_grid: np.ndarray | None = field(default=None, repr=False)
    samples: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not (-1.0 < self.a < self.b < 1.0):
            raise ValueError(
                f"support [{self.a}, {self.b}] must satisfy -1 < a < b < 1"
            )
        if self.kind == "bspline":
            if self.order < 1:
                raise ValueError("bspline order must be a positive integer")
            knots = np.linspace(self.a, self.b, self.order + 1)
            if not np.all(np.diff(knots) >= np.finfo(float).tiny):
                raise ValueError(f"support [{self.a}, {self.b}] is too narrow for "
                                 f"distinct knots of a bspline of order {self.order}")
            k = self.order - 1
            knots = np.r_[(knots[0] - 1.0,) * k, knots, (knots[-1] + 1.0,) * k]
            object.__setattr__(self, "_knots", knots)
            peak = float(_bspline_basis(knots, k, np.array([0.5 * (self.a + self.b)]))[0])
            object.__setattr__(self, "_peak", peak if peak > 0 else 1.0)
        if self.kind == "grid":
            if self.x_grid is None or self.samples is None:
                raise ValueError("grid source requires x_grid and samples")
            x = np.asarray(self.x_grid, dtype=float)
            v = np.asarray(self.samples, dtype=complex)
            if x.ndim != 1 or v.shape[:1] != x.shape or v.ndim > 2:
                raise ValueError("x_grid and samples must be 1-d arrays of equal length "
                                 "(or samples a block with one row per node)")
            if len(x) < 2 or not np.all(x[1:] > x[:-1]):
                raise ValueError("x_grid must be strictly increasing with >= 2 nodes")
            x.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "x_grid", x)
            object.__setattr__(self, "samples", v)

    @classmethod
    def bump(cls, a, b, amplitude=1.0 + 0.0j):
        return cls("bump", a, b, complex(amplitude))

    @classmethod
    def bspline(cls, a, b, order, amplitude=1.0 + 0.0j):
        return cls("bspline", a, b, complex(amplitude), order=int(order))

    @classmethod
    def modulated_bump(cls, a, b, mod_freq, amplitude=1.0 + 0.0j):
        return cls("modulated_bump", a, b, complex(amplitude), mod_freq=float(mod_freq))

    @classmethod
    def from_grid(cls, x_grid, samples, amplitude=1.0 + 0.0j):
        x = np.asarray(x_grid, dtype=float)
        return cls("grid", float(x[0]), float(x[-1]), complex(amplitude),
                   x_grid=x, samples=np.asarray(samples, dtype=complex))

    @property
    def support(self):
        return (self.a, self.b)

    @property
    def breakpoints(self):
        """Interior points where the source loses smoothness (quadrature splits here)."""
        if self.kind == "bspline":
            return tuple(np.linspace(self.a, self.b, self.order + 1)[1:-1])
        if self.kind == "grid":
            return tuple(self.x_grid[1:-1])
        return ()

    @property
    def flat_ends(self):
        """(end, width) for each support end where the source vanishes to
        all orders, with the widest Gauss panel that may touch it.  A
        16-node panel 1/16 of the half-width wide resolves the bump
        profile's edge to rounding; the 1/4 of eight uniform panels
        leaves 1e-10."""
        if self.kind in ("bump", "modulated_bump"):
            width = (self.b - self.a) / 32.0
            return ((self.a, width), (self.b, width))
        return ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind in ("bump", "modulated_bump"):
            with np.errstate(over="ignore"):  # far outside a narrow support: inf, value 0
                t = (2.0 * x - (self.a + self.b)) / (self.b - self.a)
            vals = _bump_profile(t).astype(complex)
            if self.kind == "modulated_bump":
                vals = vals * np.exp(1j * self.mod_freq * x)
        elif self.kind == "bspline":
            vals = (_bspline_basis(self._knots, self.order - 1, x) / self._peak).astype(complex)
        else:  # grid
            vals = (np.interp(x, self.x_grid, self.samples.real)
                    + 1j * np.interp(x, self.x_grid, self.samples.imag))
            vals[(x < self.a) | (x > self.b)] = 0.0
        vals = self.amplitude * vals
        return vals[0] if scalar else vals


@dataclass(frozen=True)
class HalfSource:
    """A source restricted to one side of the interface at x = 0.

    The right half keeps x >= 0 (the single point x = 0 is assigned to the
    right restriction by convention), the left half keeps x < 0.
    """

    parent: SourceSpec
    side: str  # "right" or "left"

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")

    @property
    def support(self):
        """Clipped support interval, or None when the side carries nothing."""
        a, b = self.parent.support
        if self.side == "right":
            lo, hi = max(a, 0.0), b
        else:
            lo, hi = a, min(b, 0.0)
        return (lo, hi) if lo < hi else None

    @property
    def breakpoints(self):
        sup = self.support
        if sup is None:
            return ()
        lo, hi = sup
        return tuple(t for t in self.parent.breakpoints if lo < t < hi)

    @property
    def flat_ends(self):
        """The parent's flat ends, or none where the half has no support:
        ``composite_rule`` makes every cut they call for on the half's
        rule, the reach point of an edge just past the interface
        included, and passes over the rest."""
        return () if self.support is None else self.parent.flat_ends

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        mask = (x >= 0.0) if self.side == "right" else (x < 0.0)
        return np.where(mask, self.parent(x), 0.0 + 0.0j)


@dataclass(frozen=True)
class SourcePair:
    """The split f = f1 + f2 with f1 supported in [0, 1) and f2 in (-1, 0)."""

    f1: HalfSource
    f2: HalfSource


def split_source(spec):
    """Split a source at the interface: f1 = f * [x >= 0], f2 = f * [x < 0]."""
    return SourcePair(HalfSource(spec, "right"), HalfSource(spec, "left"))


def _scaled_norm(norm, *arrays):
    """``norm(*arrays)``, a root of a sum of squares of their entries, or
    an array of such roots.  Where a sum overflows though every entry is
    finite, the arrays are divided by their largest modulus, which then
    multiplies the roots; in-range norms keep the plain sums, bit for
    bit."""
    with np.errstate(over="ignore"):
        plain = norm(*arrays)
    if np.isfinite(plain).all():
        return plain
    top = max(np.max(np.abs(a)) for a in arrays)
    if not np.isfinite(top):
        return plain
    scaled = top * norm(*(a / top for a in arrays))
    return float(scaled) if np.ndim(scaled) == 0 else scaled


def _weighted_values(source):
    """The weights of a source's L2 rule over its support, and its values
    at the rule's nodes (both empty when it has no support)."""
    sup = source.support
    if sup is None:
        return np.empty(0), np.empty(0, dtype=complex)
    y, w = composite_rule(*sup, source.breakpoints, 0.0, 8, 16, source.flat_ends)
    return w, source(y)


def l2_norm_sq(source):
    """Squared L2 norm of a SourceSpec or HalfSource over its support."""
    w, v = _weighted_values(source)
    return float(np.sum(w * np.abs(v) ** 2))


def _l2_norm(source):
    """The root of ``l2_norm_sq(source)``, bit for bit, and finite as well
    where the squares overflow (``_scaled_norm``)."""
    w, v = _weighted_values(source)
    return _scaled_norm(lambda u: float(np.sqrt(np.sum(w * np.abs(u) ** 2))), v)
