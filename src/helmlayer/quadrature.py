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

The rule is built in one pass over every segment at once.  A segment's
panel edges are the doubles ``np.linspace`` gives it, a + k step, or
a + (k / p) delta where the step underflows to 0, so each node and
weight is the one a segment-by-segment build makes
(``test_grouped_rule_matches_the_per_segment_rule_bits``).

``composite_rule`` owns every flat-end cut, the narrow panel at ``lo``
or ``hi`` and the reach points of ``_flat_end_breaks``: a caller passes
a source's breakpoints and flat ends as they are.
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
    refining every panel would.  A flat end nearer a cut of the rule
    than ``width`` (the interface just inside a bump's edge, or ``lo`` of
    a half of such a bump) also adds the point ``width`` in from it as a
    breakpoint (``_flat_end_breaks``), and an end whose point lies
    outside (lo, hi) adds nothing, so a caller passes a source's flat
    ends as they are.
    """
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if base_panels < 1 or nodes < 1:
        raise ValueError("panel and node counts must be positive")
    gx, gw = gauss_rule(nodes)
    breaks = _flat_end_breaks(lo, hi, breakpoints, flat_ends)
    cuts = [lo] + [t for t in sorted(breaks) if lo < t < hi] + [hi]
    need = abs(float(osc_rate)) * (hi - lo) / 2.0 * nodes
    if not need <= _MAX_NODES:  # an infinite rate too
        raise RuleSizeError(f"resolving oscillation rate {osc_rate:.6g} on [{lo:g}, {hi:g}] "
                            f"takes {need:.3g} quadrature nodes, over {_MAX_NODES}")
    cuts = np.array(cuts, dtype=float)
    delta = cuts[1:] - cuts[:-1]
    panels = np.maximum(base_panels, np.ceil(abs(osc_rate) * delta / 2.0)).astype(int)
    step = delta / panels
    # each segment's edges but its last, which is the next one's first
    # (hi for the last), as np.linspace forms them: it divides before it
    # scales where a step underflows to 0
    seg = np.repeat(np.arange(len(panels)), panels)
    k = np.arange(len(seg)) - (np.cumsum(panels) - panels)[seg]
    edges = np.empty(len(seg) + 1)
    if step.all():
        np.multiply(k, step[seg], out=edges[:-1])
    else:
        edges[:-1] = np.where(step[seg] == 0, k / panels[seg] * delta[seg], k * step[seg])
    edges[:-1] += cuts[seg]
    edges[-1] = hi
    head = [lo + width for end, width in flat_ends if end == lo and step[0] > width]
    tail = [hi - width for end, width in flat_ends if end == hi and step[-1] > width]
    if head or tail:
        edges = np.concatenate((edges[:1], head[:1], edges[1:-1], tail[:1], edges[-1:]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    return (mids[:, None] + halfs[:, None] * gx).ravel(), (halfs[:, None] * gw).ravel()


def _flat_end_breaks(lo, hi, breakpoints, flat_ends):
    """The breakpoints of a rule on [lo, hi], with the point ``width`` in
    from each flat end that a cut of the rule falls short of.

    A flat end at ``lo`` or ``hi`` is met by ``composite_rule``'s narrow
    panel.  Where a breakpoint lies nearer the end than ``width`` (the
    interface just inside a bump's edge), or the end lies just beyond
    [lo, hi] (a half of such a bump), the panel beside that cut reaches
    the edge's essential singularity with no narrow panel of its own:
    the point end +- width joins the breakpoints, so no panel within
    ``width`` of the end is wider than the panel the end may touch.
    Elsewhere the breakpoints come back as they were.
    """
    breaks = set(float(t) for t in breakpoints)
    for end, width in flat_ends:
        reach = end + width if end <= lo else end - width
        near, far = min(end, reach), max(end, reach)
        if lo < reach < hi and any(near < t < far for t in (lo, hi, *breaks)):
            breaks.add(reach)
    return breaks
