"""Composite Gauss-Legendre rules with breakpoint splitting and
oscillation-aware panel refinement.

Integrands in this package are piecewise analytic with known kink
locations (the interface x = 0, the source point of |x - y|, spline
knots) and oscillate no faster than a known phase rate.  Splitting the
interval at every kink and capping the phase advance per panel at about
2 radians makes fixed-order Gauss-Legendre spectrally accurate.

``composite_rule`` builds every rule in the package.  A partition into
cells (a grid source's samples, the hat basis of the inversion operator)
is the rule with ``base_panels=1`` and the inner cell edges as
breakpoints: one panel per cell, more only where the phase advances by
over 2 radians within it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_rule", "composite_rule"]


@lru_cache(maxsize=32)
def gauss_rule(nodes):
    """Gauss-Legendre nodes/weights on [-1, 1], cached and read-only."""
    if nodes < 1:
        raise ValueError("need at least one node per panel")
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _segment_rule(lo, hi, panels, gx, gw, flat_ends=()):
    edges = np.linspace(lo, hi, panels + 1)
    step = (hi - lo) / panels
    head = [lo + width for end, width in flat_ends if end == lo and step > width]
    tail = [hi - width for end, width in flat_ends if end == hi and step > width]
    if head or tail:
        edges = np.concatenate((edges[:1], head[:1], edges[1:-1], tail[:1], edges[-1:]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    return (mids[:, None] + halfs[:, None] * gx).ravel(), (halfs[:, None] * gw).ravel()


def composite_rule(lo, hi, breakpoints=(), osc_rate=0.0, base_panels=8, nodes=16,
                   flat_ends=()):
    """Quadrature rule on [lo, hi] split at interior breakpoints.

    Each segment between consecutive breakpoints gets at least
    ``base_panels`` panels, refined so a phase advancing at ``osc_rate``
    radians per unit length moves at most 2 radians per panel.

    ``flat_ends`` holds (end, width) pairs: at an end of [lo, hi] where
    the integrand vanishes to all orders (the edge of a bump source, an
    essential singularity), the panel touching it is cut to at most
    ``width``.  Gauss-Legendre converges slowly on a panel that reaches
    such an edge, so the one narrow panel there buys the accuracy that
    refining every panel would.
    """
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if base_panels < 1 or nodes < 1:
        raise ValueError("panel and node counts must be positive")
    gx, gw = gauss_rule(nodes)
    cuts = [lo] + [t for t in sorted(set(float(t) for t in breakpoints)) if lo < t < hi] + [hi]
    xs, ws = [], []
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        panels = max(base_panels, int(np.ceil(abs(osc_rate) * (seg_hi - seg_lo) / 2.0)))
        x, w = _segment_rule(seg_lo, seg_hi, panels, gx, gw, flat_ends)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)
