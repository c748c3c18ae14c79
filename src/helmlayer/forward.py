"""Forward solvers and endpoint data sweeps.

The primary path evaluates u(x, omega) = int_{-1}^{1} g(x, y) f(y) dy by
composite Gauss-Legendre quadrature (so u solves u'' + kappa^2 u = -f
with the outgoing endpoint conditions).  ``fd_oracle`` is an independent
second-order finite-difference discretization of the same boundary value
problem used to cross-check the quadrature path.  Eliminating one entry
of each one-sided boundary row leaves its system tridiagonal, solved
without row exchanges (``test_fd_oracle_matches_dense_solve`` holds it
to ``np.linalg.solve``).  ``interface_traces`` and ``check_radiation``
verify the exact interface and radiation identities that the
multi-frequency data analysis rests on.  They, and the amplitude bound
of ``fourier``, are one-draw calls of routines that take a batch of
draws (f, medium, omega) in one pass, ``_draw_sums``: every draw's rule
is concatenated with the others, each node carrying its draw's medium
and omega, and one kernel call per block of draws is summed by draw
with ``np.add.reduceat``.  A draw's fields are the doubles of
``forward_field``: the same rule, kernel values and per-draw sum.

Endpoint data over many frequencies (``boundary_sweep``, and the
operator columns of ``inverse.assemble_operator``) come from one map,
``_endpoint_map``.  It splits the frequencies into blocks; the calling
thread and one helper thread per further CPU the process may run on
each take the next block until none is left.  The split does not
depend on the number of workers and every entry is the same arithmetic
whichever thread computes it, so the worker count never moves a bit.
Each call makes its helper threads and joins them before it returns:
importing the module starts no thread, no thread outlives the call
that made it, and a forked child starts clean.

``_beside`` runs other work on one thread made for it: a stability-sweep
band computes its sources' data there while the calling thread factors
the band's operator.  Helpers are spawned from the main thread only; a
map called off it (the sources' own maps) runs every block itself.
"""

from __future__ import annotations

import csv
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import FrequencyGrid, wavenumbers
from .greens import _check_omega, _green, _green_runs, green_eval, green_dx
from .quadrature import composite_rule

__all__ = [
    "BoundaryData",
    "TraceReport",
    "source_rule",
    "forward_field",
    "forward_field_dx",
    "boundary_sweep",
    "fd_oracle",
    "interface_traces",
    "interface_traces_many",
    "check_radiation",
    "check_radiation_many",
    "write_boundary_csv",
    "read_boundary_csv",
]

# kernel entries per block: of the endpoint map's frequency blocks, and
# of the nodes of ``_draw_sums``' blocks of draws
_CHUNK = 32768


@dataclass(frozen=True)
class BoundaryData:
    """Complex endpoint fields u(-1, omega) and u(+1, omega) over a grid."""

    grid: FrequencyGrid
    u_minus: np.ndarray
    u_plus: np.ndarray

    def __post_init__(self):
        um = np.asarray(self.u_minus, dtype=complex)
        up = np.asarray(self.u_plus, dtype=complex)
        if len(um) != len(self.grid) or len(up) != len(self.grid):
            raise ValueError("boundary data length must match the frequency grid")
        um.setflags(write=False)
        up.setflags(write=False)
        object.__setattr__(self, "u_minus", um)
        object.__setattr__(self, "u_plus", up)


def source_rule(f, rate, extra_breaks=(), nodes=16):
    """Quadrature rule over the support of f (a source or one half of
    it) resolving kernels that oscillate at most like exp(i rate y).

    Splits at the interface, at the source's own breakpoints, and at any
    extra points (e.g. the kink of |x - y|), and narrows the panels at
    the source's flat ends (the edges of a bump).  Grid sources integrate
    cell by cell (one panel per cell, ``base_panels=1``); other sources
    start from 8 panels per interval.
    """
    sup = f.support
    if sup is None:
        return np.empty(0), np.empty(0)
    lo, hi = sup
    # composite_rule drops the points that do not lie inside (lo, hi)
    breaks = {*f.breakpoints, *extra_breaks, 0.0}
    return composite_rule(lo, hi, breaks, osc_rate=rate,
                          base_panels=1 if _is_grid(f) else 8,
                          nodes=_panel_nodes(f, nodes), flat_ends=f.flat_ends)


def _is_grid(f):
    return (getattr(f, "kind", None) or getattr(f.parent, "kind", None)) == "grid"


def _panel_nodes(f, nodes):
    """Gauss nodes per panel of ``source_rule(f, ..., nodes=nodes)``: the
    rule is a run of panels of this many consecutive nodes."""
    return max(4, nodes // 2) if _is_grid(f) else nodes


def _field(f, medium, omega, x, kernel):
    """int kernel(x, y) f(y) dy at one point x in [-1, 1], on the rule
    split at x (the kink of |x - y|): the sum of its terms by
    ``_segment_sums``, as ``_draw_sums`` forms it for a batch."""
    _check_omega(omega)
    if not abs(x) <= 1.0:
        raise ValueError("evaluation point outside [-1, 1]")
    y, w = source_rule(f, medium.c_max * omega, extra_breaks=[x])
    if len(y) == 0:
        return 0j
    return complex(_segment_sums(w * kernel(x, y, medium, omega) * f(y), [0, len(y)])[0])


def _segment_sums(values, bounds):
    """Sums of ``values`` over [bounds[i], bounds[i+1]) along the last
    axis, by ``np.add.reduceat``: each is its first term plus the
    pairwise sum of the rest, wherever the segment sits.  An empty
    segment sums to 0; bounds[-1] must be the axis length."""
    bounds = np.asarray(bounds)
    lo, full = bounds[:-1], bounds[:-1] < bounds[1:]
    sums = np.zeros(values.shape[:-1] + (len(lo),), dtype=values.dtype)
    if full.any():
        # each full segment runs to the next full one's start, since the
        # empty segments between them start there too
        sums[..., full] = np.add.reduceat(values, lo[full], axis=-1)
    return sums


def _draw_sums(draws, xs, derivs):
    """One Green's-kernel pass over the draws (f, medium, omega).

    Each draw integrates on its own rule, ``source_rule(f, c_max omega)``
    split at the points of ``xs`` as ``_field``'s is at its point, and at
    the interface: the nodes of each half are that half's rule.  Per
    draw it returns

    - ``fields[d, k, j]``: int d^k g(x_j, y)/dx^k f(y) dy, for k in
      ``derivs`` (False for g, True for its x-derivative), with the
      doubles of ``_field``;
    - ``fts[d, s, m]``: the half-line transform fhat_side(+-c_side omega)
      (m = 0 for +, 1 for -) of the left (s = 0) and right (s = 1) half,
      c_side that half's speed, as the sum over the half's nodes;
    - ``l1[d, s]``: the half's L1 norm on the same nodes.

    The draws' nodes are concatenated in blocks of whole draws, at most
    ``_CHUNK`` nodes a block (or one draw, if it alone has more), each
    node carrying its draw's medium and omega.  A block makes one kernel
    call (``_green_runs``) for every point and derivative and one
    exponential per node for the transforms, and sums them by draw and
    by half with ``_segment_sums``.  A draw's values do not depend on
    the block it falls in.
    """
    draws = list(draws)
    xs = np.asarray(xs, dtype=float)
    if not (np.abs(xs) <= 1.0).all():
        raise ValueError("evaluation point outside [-1, 1]")
    fields = np.zeros((len(draws), len(derivs), len(xs)), dtype=complex)
    fts = np.zeros((len(draws), 2, 2), dtype=complex)
    l1 = np.zeros((len(draws), 2))

    def flush(block):
        idx, media, omegas, ys, ws, fys = zip(*block)
        counts = [len(y) for y in ys]
        y, w, fy = np.concatenate(ys), np.concatenate(ws), np.concatenate(fys)
        starts = np.cumsum([0] + counts)
        cuts = starts[:-1] + [np.searchsorted(yd, 0.0) for yd in ys]
        halves = np.append(np.column_stack([starts[:-1], cuts]).ravel(), starts[-1])
        idx = list(idx)
        g = _green_runs(xs, y, media, omegas, counts, derivs)  # (point, deriv, node)
        fields[idx] = _segment_sums(w * g * fy, starts).transpose(2, 1, 0)
        fw = w * fy
        speed = np.where(y > 0, np.repeat([m.c1 for m in media], counts),
                         np.repeat([m.c2 for m in media], counts))
        wave = np.exp(-1j * (speed * np.repeat(omegas, counts)) * y)  # e^{-i c omega y}
        fts[idx, :, 0] = _segment_sums(fw * wave, halves).reshape(-1, 2)
        fts[idx, :, 1] = _segment_sums(fw * wave.conj(), halves).reshape(-1, 2)
        l1[idx] = _segment_sums(np.abs(fw), halves).reshape(-1, 2)

    block, size = [], 0
    for d, (f, medium, omega) in enumerate(draws):
        _check_omega(omega)
        y, w = source_rule(f, medium.c_max * omega, extra_breaks=xs)
        if block and size + len(y) > _CHUNK:
            flush(block)
            block, size = [], 0
        block.append((d, medium, omega, y, w, f(y)))
        size += len(y)
    if block:
        flush(block)
    return fields, fts, l1


def forward_field(f, medium, omega, x):
    """u(x, omega) for a single evaluation point x in [-1, 1]."""
    return _field(f, medium, omega, x, green_eval)


def forward_field_dx(f, medium, omega, x):
    """Analytic derivative u'(x, omega), differentiating g under the integral."""
    return _field(f, medium, omega, x, green_dx)


def _cores():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _beside(fn):
    """Start ``fn()`` beside the calling thread and return a function
    that waits for its result.  With more than one CPU, ``fn`` runs on a
    thread made for it, which the waiter joins before it returns the
    result or raises ``fn``'s exception; with one CPU, ``fn`` runs at
    once, before this returns.  concurrent.futures is imported here and
    in ``_endpoint_map`` so that importing helmlayer starts no thread
    and loads no executor."""
    if _cores() > 1:
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(1, thread_name_prefix="helmlayer")
        future = executor.submit(fn)

        def wait():
            executor.shutdown()
            return future.result()

        return wait
    result = fn()
    return lambda: result


def _endpoint_map(omegas, y, weights, medium, chunk=_CHUNK):
    """Endpoint fields (u(-1), u(+1)) of the point sources weights_j at
    y_j (weights may carry trailing columns, one field per column).

    The frequencies are split into balanced blocks of at most ``chunk``
    kernel entries (rows times len(y)), but never of one row.  The
    default gives blocks of about 27 rows for the 1212 nodes of the
    default operator and of 80 rows for a 384-node source rule.
    Each block forms its kernel rows g(+-1, y_j; omega) from the layer
    table and multiplies them by the weights, cast to complex once, into
    its own rows of the result.  The calling thread and one helper thread
    per further CPU, made for this call and joined before it returns,
    each take the next block until none is left, so a thread slowed by
    other load does not hold the rest back.  One block or one CPU runs
    in the calling thread alone, and so does a map called off the main
    thread (a sweep band's sources, say): only the main thread spawns
    helpers, so helmlayer never runs more threads of its own than CPUs.

    The split depends on the frequency count, len(y) and ``chunk`` only,
    and a block is the same computation whichever thread runs it, so the
    result does not depend on the number of CPUs.  With single-threaded
    BLAS it is also the one product of the whole table, bit for bit,
    whatever the split: a product of two or more rows sums each row as
    the full product does, while a one-row product takes the
    matrix-vector path, which rounds differently.  A multi-threaded BLAS
    may partition a large product its own way, as a change of its thread
    count does.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    n = len(omegas)
    weights = np.asarray(weights, dtype=complex)
    u_minus = np.empty((n,) + weights.shape[1:], dtype=complex)
    u_plus = np.empty_like(u_minus)
    n_blocks = max(1, min(-(-n * len(y) // chunk), n // 2))
    cuts = [n * i // n_blocks for i in range(n_blocks + 1)]
    todo, lock = iter(zip(cuts[:-1], cuts[1:])), threading.Lock()

    def run():
        while True:
            with lock:
                block = next(todo, None)
            if block is None:
                return
            lo, hi = block
            blk = omegas[lo:hi]
            u_minus[lo:hi] = _green(-1.0, y, medium, blk) @ weights
            u_plus[lo:hi] = _green(1.0, y, medium, blk) @ weights

    workers = min(_cores(), n_blocks)
    if workers == 1 or threading.current_thread() is not threading.main_thread():
        run()
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1, thread_name_prefix="helmlayer") as helpers:
            futures = [helpers.submit(run) for _ in range(workers - 1)]
            run()
        for fut in futures:
            fut.result()  # a helper's exception reaches the caller
    return u_minus, u_plus


def boundary_sweep(f, medium, grid):
    """Endpoint data u(+-1, omega) for every frequency of the grid.

    One quadrature rule resolved at the largest frequency serves the
    whole sweep; frequencies are independent, evaluated in blocks spread
    over the CPUs (``_endpoint_map``) and assembled in grid order.
    """
    om = grid.omegas
    y, w = source_rule(f, medium.c_max * float(om[-1]))
    u_minus, u_plus = _endpoint_map(om, y, w * f(y), medium)
    return BoundaryData(grid, u_minus, u_plus)


def fd_oracle(f, medium, omega, nodes):
    """Second-order finite-difference solve of u'' + kappa^2 u = -f.

    ``nodes`` = n counts intervals of the uniform grid on [-1, 1] and must
    be even so x = 0 is a node (where kappa^2 is the mean of its one-sided
    values).  Row 0 < j < n is (u[j-1] - 2 u[j] + u[j+1]) / h^2 + kappa^2
    u[j] = -f(x[j]); the outgoing rows are (-3 u[0] + 4 u[1] - u[2]) / (2h)
    + i k2 u[0] = 0 and (u[n-2] - 4 u[n-1] + 3 u[n]) / (2h) - i k1 u[n] = 0.
    Each boundary row's third entry is eliminated with its neighbour, whose
    entry there is 1/h^2, and the tridiagonal rest is solved by forward
    elimination and back substitution without row exchanges
    (``test_fd_oracle_matches_dense_solve``).  Returns (x, u).
    """
    if nodes < 64:
        raise ValueError("need at least 64 intervals")
    if nodes % 2:
        raise ValueError("interval count must be even so x = 0 is a node")
    _check_omega(omega)
    k1, k2 = wavenumbers(medium, omega)
    n, h = nodes, 2.0 / nodes
    x = np.linspace(-1.0, 1.0, n + 1)
    ksq = np.where(x > 0, k1 ** 2, k2 ** 2).astype(complex)
    ksq[n // 2] = 0.5 * (k1 ** 2 + k2 ** 2)
    # row j: lower[j] u[j-1] + diag[j] u[j] + upper[j] u[j+1] = rhs[j]
    lower, upper = [1.0 / h ** 2] * (n + 1), [1.0 / h ** 2] * (n + 1)
    diag = (ksq - 2.0 / h ** 2).tolist()
    rhs = [0j] + np.asarray(-f(x[1:-1]), dtype=complex).tolist() + [0j]
    c = -0.5 * h  # row 0 - c * row 1 drops u[2]; row n + c * row n-1 drops u[n-2]
    diag[0], upper[0], rhs[0] = 1j * k2 - 1.0 / h, 2.0 / h - c * diag[1], -c * rhs[1]
    lower[n], diag[n], rhs[n] = c * diag[n - 1] - 2.0 / h, 1.0 / h - 1j * k1, c * rhs[n - 1]
    try:
        for j in range(1, n + 1):
            m = lower[j] / diag[j - 1]
            diag[j] -= m * upper[j - 1]
            rhs[j] -= m * rhs[j - 1]
        rhs[n] /= diag[n]
        for j in range(n - 1, -1, -1):
            rhs[j] = (rhs[j] - upper[j] * rhs[j + 1]) / diag[j]
    except ZeroDivisionError as exc:
        raise RuntimeError(f"singular finite-difference system at omega={omega}, nodes={nodes}") from exc
    return x, np.array(rhs)


@dataclass(frozen=True)
class TraceReport:
    """Field and derivative traces at the interface against their
    half-line transform predictions.

    ``z_measured`` holds the four impedance combinations
    u'(0) - i*k1*u(0), u'(0) + i*k2*u(0), u'(0) + i*k1*u(0),
    u'(0) - i*k2*u(0) formed from the quadrature traces;
    ``z_predicted`` the same combinations expressed through the
    half-line transforms of the split source.
    """

    u0: complex
    du0: complex
    u0_predicted: complex
    du0_predicted: complex
    z_measured: tuple
    z_predicted: tuple
    residuals: np.ndarray  # |measured - predicted| for u0, du0, z1..z4

    @property
    def max_residual(self):
        return float(np.max(self.residuals))


def interface_traces(f, medium, omega):
    """Quadrature traces u(0), u'(0) and their transform predictions:
    ``interface_traces_many`` of one draw."""
    return interface_traces_many([(f, medium, omega)])[0]


def interface_traces_many(draws):
    """A ``TraceReport`` per draw (f, medium, omega): the quadrature
    traces u(0), u'(0) and the transforms that predict them, all from
    one pass over the draws' rules (``_draw_sums``)."""
    draws = list(draws)
    fields, fts, _ = _draw_sums(draws, [0.0], (False, True))
    reports = []
    for (_, medium, omega), ((u0,), (du0,)), ft in zip(draws, fields.tolist(), fts.tolist()):
        k1, k2 = wavenumbers(medium, omega)
        f1m, f2p = ft[1][1], ft[0][0]  # fhat_right(-k1), fhat_left(k2)
        u0_pred = 1j / (k1 + k2) * (f1m + f2p)
        du0_pred = (k2 * f1m - k1 * f2p) / (k1 + k2)
        z_meas = (
            du0 - 1j * k1 * u0,
            du0 + 1j * k2 * u0,
            du0 + 1j * k1 * u0,
            du0 - 1j * k2 * u0,
        )
        z_pred = (
            f1m,
            -f2p,
            ((k2 - k1) * f1m - 2.0 * k1 * f2p) / (k1 + k2),
            (2.0 * k2 * f1m + (k2 - k1) * f2p) / (k1 + k2),
        )
        res = np.array(
            [abs(u0 - u0_pred), abs(du0 - du0_pred)]
            + [abs(m - p) for m, p in zip(z_meas, z_pred)]
        )
        reports.append(TraceReport(u0, du0, u0_pred, du0_pred, z_meas, z_pred, res))
    return reports


def check_radiation(f, medium, omega):
    """Outgoing-condition residuals (|u'(-1) + i k2 u(-1)|, |u'(1) - i k1 u(1)|):
    ``check_radiation_many`` of one draw."""
    return tuple(check_radiation_many([(f, medium, omega)])[0].tolist())


def check_radiation_many(draws):
    """The outgoing-condition residuals of each draw (f, medium, omega),
    one row (|u'(-1) + i k2 u(-1)|, |u'(1) - i k1 u(1)|) a draw, both
    endpoints of every draw from one pass over the draws' rules
    (``_draw_sums``)."""
    draws = list(draws)
    fields, _, _ = _draw_sums(draws, [-1.0, 1.0], (False, True))
    rows = []
    for (_, medium, omega), ((um, up), (dum, dup)) in zip(draws, fields.tolist()):
        k1, k2 = wavenumbers(medium, omega)
        rows.append((abs(dum + 1j * k2 * um), abs(dup - 1j * k1 * up)))
    return np.array(rows, dtype=float).reshape(-1, 2)


CSV_HEADER = ["omega", "re_u_minus", "im_u_minus", "re_u_plus", "im_u_plus"]


def _exact(v):
    """17 significant digits: the float reads back bit for bit."""
    return f"{v:.17g}"


def _write_csv(path, header, rows):
    """Write ``header``, then each row: a float as ``_exact`` gives it and
    any other cell as ``str`` gives it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_exact(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _read_csv(path, header, types):
    """The rows after ``header``, as lists of cells, each read by its
    column's entry of ``types`` (``float``, ``int``, ``str``); blank lines
    are skipped.  A missing or wrong header, a row whose width is not the
    header's, a cell that its type cannot read, or a line that is not CSV
    raises a ``ValueError`` that names the file and the row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num} of {path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} has no header row, expected {header!r}")
    if rows[0] != header:
        raise ValueError(f"header row of {path} is {rows[0]!r}, expected {header!r}")
    out = []
    for i, row in enumerate(rows[1:], 1):
        if len(row) != len(header):
            raise ValueError(f"data row {i} of {path} has {len(row)} fields, "
                             f"the header has {len(header)}")
        try:
            out.append([read(cell) for read, cell in zip(types, row)])
        except ValueError as exc:  # exc quotes the cell
            raise ValueError(f"{exc} in data row {i} of {path}") from None
    return out


def write_boundary_csv(data, path):
    """Endpoint data as CSV, full double precision."""
    _write_csv(path, CSV_HEADER, zip(data.grid.omegas, data.u_minus.real, data.u_minus.imag,
                                     data.u_plus.real, data.u_plus.imag))


def read_boundary_csv(path, K=None):
    """Read endpoint data written by ``write_boundary_csv``."""
    arr = np.asarray(_read_csv(path, CSV_HEADER, [float] * len(CSV_HEADER)), dtype=float)
    if arr.size == 0:
        raise ValueError(f"no data rows in {path}")
    bad = ~np.all(np.isfinite(arr), axis=1)
    if bad.any():
        raise ValueError(f"non-finite value in data row {np.argmax(bad) + 1} of {path}")
    om = arr[:, 0]
    grid = FrequencyGrid(om, K if K is not None else float(om[-1]))
    return BoundaryData(grid, arr[:, 1] + 1j * arr[:, 2], arr[:, 3] + 1j * arr[:, 4])
