import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helmlayer import inverse
from helmlayer.forward import _CHUNK, boundary_sweep, source_rule
from helmlayer.greens import _green
from helmlayer.model import FrequencyGrid, Medium, SourceSpec, split_source
from helmlayer.quadrature import _flat_end_breaks, composite_rule, gauss_rule


def test_gauss_rule_basics():
    x, w = gauss_rule(16)
    assert len(x) == 16
    assert np.isclose(w.sum(), 2.0, rtol=1e-14)
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_polynomial_exactness():
    y, w = composite_rule(-0.3, 0.7, (), 0.0, base_panels=2, nodes=8)
    for p in range(12):
        exact = (0.7 ** (p + 1) - (-0.3) ** (p + 1)) / (p + 1)
        assert abs(np.sum(w * y ** p) - exact) < 1e-14


def test_breakpoints_split_kinked_integrand():
    # |y - 0.2| has a kink; splitting there restores spectral accuracy
    exact = ((0.2 + 1.0) ** 2 + (1.0 - 0.2) ** 2) / 2.0
    y, w = composite_rule(-1.0, 1.0, (0.2,), 0.0, base_panels=1, nodes=8)
    assert abs(np.sum(w * np.abs(y - 0.2)) - exact) < 1e-14
    y, w = composite_rule(-1.0, 1.0, (), 0.0, base_panels=1, nodes=8)
    assert abs(np.sum(w * np.abs(y - 0.2)) - exact) > 1e-6


def test_oscillation_refinement_resolves_high_frequency():
    rate = 200.0
    y, w = composite_rule(0.0, 1.0, (), osc_rate=rate, base_panels=1, nodes=16)
    got = np.sum(w * np.exp(1j * rate * y))
    exact = (np.exp(1j * rate) - 1.0) / (1j * rate)
    assert abs(got - exact) < 1e-13
    # without refinement the same node budget fails badly
    coarse_y, coarse_w = composite_rule(0.0, 1.0, (), 0.0, base_panels=1, nodes=16)
    assert abs(np.sum(coarse_w * np.exp(1j * rate * coarse_y)) - exact) > 1e-3


def test_flat_ends_narrow_the_edge_panels_of_a_bump():
    bump = SourceSpec.bump(-0.8, 0.8)
    assert bump.flat_ends == ((-0.8, 0.05), (0.8, 0.05))
    fine_y, fine_w = composite_rule(-0.8, 0.8, (), 0.0, base_panels=256, nodes=16)
    for k in (0.0, 3.0, 10.0, 30.0):
        exact = np.sum(fine_w * bump(fine_y) * np.exp(1j * k * fine_y))
        y, w = composite_rule(-0.8, 0.8, (), 0.0, base_panels=8, nodes=16,
                              flat_ends=bump.flat_ends)
        assert abs(np.sum(w * bump(y) * np.exp(1j * k * y)) - exact) < 1e-15
        # eight uniform panels reach the essential singularity at the edges
        y, w = composite_rule(-0.8, 0.8, (), 0.0, base_panels=8, nodes=16)
        assert abs(np.sum(w * bump(y) * np.exp(1j * k * y)) - exact) > 1e-12
    # one panel more at each end, 1/16 of the half-width wide, nowhere else
    y, _ = composite_rule(-0.8, 0.8, (0.0,), 0.0, base_panels=4, nodes=2,
                          flat_ends=bump.flat_ends)
    assert len(y) == 2 * 10
    assert -0.8 < y[0] < y[1] < -0.75 < y[2]
    assert 0.75 < y[-2] < y[-1] < 0.8 and y[-3] < 0.75
    # a half keeps the flat end it shares with the bump, not the interface
    right = split_source(bump).f1
    assert right.flat_ends == bump.flat_ends
    assert len(composite_rule(0.0, 0.8, (), 0.0, 4, 2, right.flat_ends)[0]) == 10
    # a split clear of the edges adds no breakpoint
    assert _flat_end_breaks(-0.8, 0.8, (0.0,), bump.flat_ends) == {0.0}
    assert _flat_end_breaks(0.0, 0.8, (), right.flat_ends) == set()
    # a panel already narrower than the width is kept as it is
    assert len(composite_rule(-0.8, 0.8, (), 0.0, 40, 2, bump.flat_ends)[0]) == 80


@pytest.mark.parametrize("a, b", [(-0.498046875, 0.001953125), (-0.001, 0.6), (-0.3, 1e-6)])
def test_a_split_near_a_flat_end_keeps_the_rule_resolved(a, b):
    # the interface nearer a bump's edge than its flat-end width: the
    # whole bump's rule, split there, and each half's rule against a
    # 4096-panel reference, to rounding of the whole bump's L1 norm
    bump = SourceSpec.bump(a, b)
    y, w = composite_rule(a, b, (), 0.0, base_panels=4096, nodes=16)
    l1 = np.sum(w * np.abs(bump(y)))
    pair = split_source(bump)
    for src in (bump, pair.f1, pair.f2):
        y, w = composite_rule(*src.support, (0.0,), 0.0, base_panels=4096, nodes=16)
        exact = np.sum(w * np.abs(src(y)))
        for rate in (0.0, 34.0):
            y, w = source_rule(src, rate)
            assert abs(np.sum(w * np.abs(src(y))) - exact) <= 1e-15 * l1


@pytest.mark.parametrize("a", [-0.01, -0.02, -0.03])
def test_composite_rule_meets_a_bumps_flat_ends_by_itself(a):
    # the right half of a bump whose left edge lies within one flat-end
    # width left of 0, on the bump's own flat ends: composite_rule adds
    # the reach point that resolves the edge, with no caller's help
    bump = SourceSpec.bump(a, a + 0.9)
    b = bump.b
    for k in (0.0, 10.0, 40.0):
        y, w = composite_rule(0.0, b, (), 0.0, base_panels=512, nodes=16)
        exact = np.sum(w * bump(y) * np.exp(1j * k * y))
        y, w = composite_rule(0.0, b, (), k, 8, 16, bump.flat_ends)
        assert abs(np.sum(w * bump(y) * np.exp(1j * k * y)) - exact) <= 1e-12 * abs(exact)


def test_cell_rule_integrates_piecewise_linear_exactly():
    edges = np.array([0.0, 0.25, 0.4, 0.8, 1.0])
    vals = np.array([0.0, 1.0, -0.5, 2.0, 0.0])
    y, w = composite_rule(edges[0], edges[-1], edges[1:-1], 0.0, base_panels=1, nodes=4)
    got = np.sum(w * np.interp(y, edges, vals))
    exact = np.trapezoid(vals, edges)
    assert abs(got - exact) < 1e-14


def _segment_rule(lo, hi, panels, gx, gw, flat_ends):
    """One segment's rule as the package built it before ``composite_rule``
    took every segment in one pass: the reference of the tests below."""
    edges = np.linspace(lo, hi, panels + 1)
    step = (hi - lo) / panels
    head = [lo + width for end, width in flat_ends if end == lo and step > width]
    tail = [hi - width for end, width in flat_ends if end == hi and step > width]
    if head or tail:
        edges = np.concatenate((edges[:1], head[:1], edges[1:-1], tail[:1], edges[-1:]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    return (mids[:, None] + halfs[:, None] * gx).ravel(), (halfs[:, None] * gw).ravel()


def _cell_rule(edges, osc_rate=0.0, nodes=6):
    """The per-cell rule the package once had beside ``composite_rule``:
    one panel per cell, refined only if the phase advance within a cell
    exceeds 2."""
    edges = np.asarray(edges, dtype=float)
    gx, gw = gauss_rule(nodes)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = max(1, int(np.ceil(abs(osc_rate) * (hi - lo) / 2.0)))
        x, w = _segment_rule(lo, hi, panels, gx, gw, ())
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def test_grid_source_rules_match_the_cell_rule_bits():
    rng = np.random.default_rng(11)
    sources = [SourceSpec.from_grid(np.linspace(-0.7, 0.8, 41), rng.standard_normal(41)),
               SourceSpec.from_grid(np.sort(rng.uniform(-0.9, 0.9, 30)), rng.standard_normal(30)),
               SourceSpec.from_grid(np.linspace(0.1, 0.6, 9), rng.standard_normal(9))]
    for f in sources:
        pair = split_source(f)
        for src in (f, pair.f1, pair.f2):
            if src.support is None:
                continue
            lo, hi = src.support
            for extra in ((), (0.13,), (-0.41, 0.2, 0.55)):
                for rate, nodes in ((0.0, 16), (13.0, 16), (240.0, 8)):
                    breaks = set(src.breakpoints) | {t for t in extra if lo < t < hi}
                    if lo < 0.0 < hi:
                        breaks.add(0.0)
                    edges = np.unique(np.concatenate([[lo, hi], sorted(breaks)]))
                    ref = _cell_rule(edges, rate, max(4, nodes // 2))
                    got = source_rule(src, rate, extra, nodes=nodes)
                    assert all(np.array_equal(g.view(np.int64), r.view(np.int64))
                               for g, r in zip(got, ref))


def test_operator_matches_the_cell_rule_bits(monkeypatch):
    # the nodes and weighted hats assemble_operator hands to the endpoint
    # map, on the default support (a node at 0), on one without a node at
    # 0, where the cell holding 0 is split there, and on one beside 0
    medium, grid = Medium(1.0, 1.5), FrequencyGrid.uniform(20.0, 40)
    real, seen = inverse._endpoint_map, []

    def spy(om, y, weights, med):
        seen.append((y, weights))
        return real(om, y, weights, med)

    monkeypatch.setattr(inverse, "_endpoint_map", spy)
    for n_basis, (a, b) in ((201, (-0.95, 0.95)), (81, (-0.9, 0.93)), (41, (0.05, 0.9))):
        inverse.assemble_operator(medium, grid, n_basis, (a, b))
        edges = np.linspace(a, b, n_basis + 2)
        cells = np.union1d(edges, [0.0]) if a < 0.0 < b else edges
        y, w = _cell_rule(cells, medium.c_max * float(grid.omegas[-1]), 6)
        hats = np.clip(1.0 - np.abs((y[:, None] - edges[None, 1:-1]) / (edges[1] - edges[0])),
                       0.0, None) * w[:, None]
        assert np.array_equal(seen[-1][0].view(np.int64), y.view(np.int64))
        assert np.array_equal(seen[-1][1].view(np.int64), hats.view(np.int64))
    assert len(seen[1][0]) == 6 * 83  # 82 cells, one of them split at 0


def _per_segment_rule(lo, hi, breakpoints, osc_rate, base_panels, nodes, flat_ends):
    """``composite_rule`` as a loop over its segments, one ``_segment_rule``
    call each."""
    gx, gw = gauss_rule(nodes)
    breaks = _flat_end_breaks(lo, hi, breakpoints, flat_ends)
    cuts = [lo] + [t for t in sorted(breaks) if lo < t < hi] + [hi]
    xs, ws = [], []
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        panels = max(base_panels, int(np.ceil(abs(osc_rate) * (seg_hi - seg_lo) / 2.0)))
        x, w = _segment_rule(seg_lo, seg_hi, panels, gx, gw, flat_ends)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


@st.composite
def rule_args(draw):
    lo = draw(st.floats(-2.0, 2.0))
    hi = lo + draw(st.floats(1e-6, 3.0))
    inside = st.floats(lo, hi) | st.floats(lo - 0.5, hi + 0.5) | st.sampled_from([lo, hi, 0.0])
    breaks = draw(st.lists(inside, max_size=40))
    breaks += draw(st.lists(st.sampled_from(breaks), max_size=5)) if breaks else []  # repeats
    # flat ends lie at lo and hi, as the package's sources put them
    ends = draw(st.lists(st.sampled_from([lo, hi]), unique=True, max_size=2))
    flat_ends = tuple((end, draw(st.floats(1e-4, 1.0))) for end in ends)
    return (lo, hi, breaks, draw(st.floats(0.0, 300.0)), draw(st.integers(1, 8)),
            draw(st.sampled_from([2, 4, 6, 8, 16])), flat_ends)


_OPERATOR_CELLS = [*np.linspace(-0.95, 0.95, 203)[1:-1], 0.0]
_GRID = [*np.linspace(-0.95, 0.95, 201)]


@settings(max_examples=500, deadline=None)
@given(rule_args())
@example((-0.95, 0.95, _OPERATOR_CELLS, 60.0, 1, 6, ()))  # the default operator's rule
@example((-0.95, 0.95, _OPERATOR_CELLS, 700.0, 1, 6, ()))  # 3 and 4 panels a cell
@example((-0.6, 0.6, _OPERATOR_CELLS, 0.0, 1, 16, ((-0.6, 1e-3), (0.6, 1e-3))))
@example((-0.7, 0.58, [0.0, 5e-324, 1e-323, 0.29], 10.0, 3, 4, ()))  # steps that underflow
@example((0.0, 0.7, [0.0], 30.0, 8, 16, ((0.7, 0.034375),)))  # a bump's half
@example((-0.4, 0.7, [0.0], 60.0, 8, 16, ((-0.4, 0.034375), (0.7, 0.034375))))  # across 0
@example((-0.58, -0.26, [], 0.0, 8, 16, ((-0.58, 0.01), (-0.26, 0.01))))  # a bump's L2 rule
@example((0.0, 0.7, [0.0, 0.1, 0.4], 30.0, 8, 16, ()))  # an order-3 B-spline's half
@example((0.0, 1.0, [], 1200.0, 8, 8, ()))  # a band energy's 600-panel omega rule
@example((0.0, 0.95, _GRID, 40.0, 1, 8, ()))  # a grid source's half
def test_grouped_rule_matches_the_per_segment_rule_bits(args):
    # the one pass forms each segment's edges with np.linspace's
    # operations and cuts the panels at the flat ends as _segment_rule
    # does: the same doubles, segment by segment
    got = composite_rule(*args)
    ref = _per_segment_rule(*args)
    assert all(np.array_equal(g.view(np.int64), r.view(np.int64)) for g, r in zip(got, ref))


def _per_half_map(om, y, weights, medium):
    """The endpoint map as the package computed it before it stacked its
    halves: (u(-1), u(+1)) in two arrays, the frequencies cut into
    ``_endpoint_map``'s blocks, one product per block and endpoint."""
    n = len(om)
    weights = np.asarray(weights, dtype=complex)
    u_minus = np.empty((n,) + weights.shape[1:], dtype=complex)
    u_plus = np.empty_like(u_minus)
    n_blocks = max(1, min(-(-n * len(y) // _CHUNK), n // 2))
    cuts = [n * i // n_blocks for i in range(n_blocks + 1)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        u_minus[lo:hi] = _green(-1.0, y, medium, om[lo:hi]) @ weights
        u_plus[lo:hi] = _green(1.0, y, medium, om[lo:hi]) @ weights
    return u_minus, u_plus


def test_operator_is_the_stacked_halves_scaled_by_row(monkeypatch):
    # on the supports of test_operator_matches_the_cell_rule_bits, the
    # operator scaled in place in the map's one array is the stack of the
    # two halves times the row weights, bit for bit
    medium, grid = Medium(1.0, 1.5), FrequencyGrid.uniform(20.0, 40)
    real, seen = inverse._endpoint_map, []

    def spy(om, y, weights, med):
        seen.append((y, weights))
        return real(om, y, weights, med)

    monkeypatch.setattr(inverse, "_endpoint_map", spy)
    for n_basis, support in ((201, (-0.95, 0.95)), (81, (-0.9, 0.93)), (41, (0.05, 0.9))):
        op = inverse.assemble_operator(medium, grid, n_basis, support)
        A_minus, A_plus = _per_half_map(grid.omegas, *seen[-1], medium)
        ref = np.vstack([A_minus, A_plus]) * op.row_weights[:, None]
        assert np.array_equal(op.matrix.view(np.int64), ref.view(np.int64))
    # boundary_sweep's two endpoints are the halves of one array
    data = boundary_sweep(SourceSpec.bump(-0.4, 0.7), medium, grid)
    stack = data.u_minus.base
    assert stack is not None and data.u_plus.base is stack and stack.shape == (2 * len(grid),)
    assert data.u_plus.ctypes.data == data.u_minus.ctypes.data + data.u_minus.nbytes


def test_composite_rule_validation():
    with pytest.raises(ValueError):
        composite_rule(1.0, 0.0)
    with pytest.raises(ValueError):
        composite_rule(0.0, 1.0, (), 0.0, base_panels=0)
