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

A rule of many segments is built in groups: the segments that share a
panel count go through one ``np.linspace`` over their ends, in which
each element takes the operations of the one-segment ``_segment_rule``,
so the nodes and weights are its doubles, segment by segment
(``test_grouped_rule_matches_the_per_segment_rule_bits``).  The
operator's 203 equal cells become one group.  A segment at a flat end,
one alone in its group, and a one-segment rule take ``_segment_rule``
itself; segments whose step underflows to 0, where ``linspace``
divides before it scales, group apart from the rest.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["RuleSizeError", "gauss_rule", "composite_rule"]

# the most nodes a rule may have: 1 GiB for its nodes alone
_MAX_NODES = 2 ** 27


class RuleSizeError(ValueError):
    """A rule whose oscillation rate asks for more than ``_MAX_NODES``
    nodes: the rate, not the memory, is out of range."""


@lru_cache(maxsize=32)
def gauss_rule(nodes):
    """Gauss-Legendre nodes/weights on [-1, 1], cached and read-only."""
    if nodes < 1:
        raise ValueError("need at least one node per panel")
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _segment_rule(lo, hi, panels, gx, gw, flat_ends):
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
    need = abs(float(osc_rate)) * (hi - lo) / 2.0 * nodes
    if not need <= _MAX_NODES:  # an infinite rate too
        raise RuleSizeError(f"resolving oscillation rate {osc_rate:.6g} on [{lo:g}, {hi:g}] "
                            f"takes {need:.3g} quadrature nodes, over {_MAX_NODES}")
    if len(cuts) == 2:
        panels = max(base_panels, int(np.ceil(abs(osc_rate) * (hi - lo) / 2.0)))
        return _segment_rule(lo, hi, panels, gx, gw, flat_ends)
    seg_lo, seg_hi = np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float)
    panels = np.maximum(base_panels, np.ceil(abs(osc_rate) * (seg_hi - seg_lo) / 2.0)).astype(int)
    # linspace divides before it scales wherever a step underflows to 0
    tiny = (seg_hi - seg_lo) / panels == 0
    ends = {end for end, _ in flat_ends}
    groups = {}
    for i, (a, b, p, z) in enumerate(zip(seg_lo.tolist(), seg_hi.tolist(), panels.tolist(),
                                         tiny.tolist())):
        groups.setdefault(("end", i) if a in ends or b in ends else (p, z), []).append(i)
    xs, ws = [None] * len(panels), [None] * len(panels)
    for idx in groups.values():
        p = int(panels[idx[0]])
        if len(idx) == 1:
            xs[idx[0]], ws[idx[0]] = _segment_rule(seg_lo[idx[0]], seg_hi[idx[0]], p, gx, gw,
                                                   flat_ends)
            continue
        edges = np.linspace(seg_lo[idx], seg_hi[idx], p + 1, axis=1)
        mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
        halfs = 0.5 * np.diff(edges)
        x = (mids[..., None] + halfs[..., None] * gx).reshape(len(idx), -1)
        w = (halfs[..., None] * gw).reshape(len(idx), -1)
        for j, i in enumerate(idx):
            xs[i], ws[i] = x[j], w[j]
    return np.concatenate(xs), np.concatenate(ws)
