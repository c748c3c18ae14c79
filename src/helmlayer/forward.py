"""Forward solvers and endpoint data sweeps.

The primary path evaluates u(x, omega) = int_{-1}^{1} g(x, y) f(y) dy by
composite Gauss-Legendre quadrature (so u solves u'' + kappa^2 u = -f
with the outgoing endpoint conditions).  ``fd_oracle`` is an independent
second-order finite-difference discretization of the same boundary value
problem used to cross-check the quadrature path.  ``interface_traces``
and ``check_radiation`` verify the exact interface and radiation
identities that the multi-frequency data analysis rests on.

Endpoint data over many frequencies (``boundary_sweep``, and the
operator columns of ``inverse.assemble_operator``) come from one map,
``_endpoint_map``.  It splits the frequencies into blocks; the calling
thread and one helper thread per further CPU the process may run on
each take the next block until none is left.  The split does not
depend on the number of workers and every entry is the same arithmetic
whichever thread computes it, so the worker count never moves a bit.
The helper pool is made on the first call that needs it: importing the
module starts no thread, and a forked child makes its own pool.

The same pool carries other work that can run beside the caller
(``_beside``): a stability-sweep band computes its sources' data there
while the calling thread factors the band's operator.  A map called from
a pool thread may find its helpers queued behind the very task that runs
it, so the map cancels every helper that has not started when it has
no block left, rather than waiting for it; a map called while the pool
is busy with other work likewise runs every block itself.
"""

from __future__ import annotations

import csv
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import FrequencyGrid, split_source, wavenumbers
from .greens import _green, green_eval, green_dx
from .quadrature import cell_rule, composite_rule

__all__ = [
    "BoundaryData",
    "TraceReport",
    "source_rule",
    "forward_field",
    "forward_field_dx",
    "boundary_sweep",
    "fd_oracle",
    "interface_traces",
    "check_radiation",
    "write_boundary_csv",
    "read_boundary_csv",
]


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


def source_rule(f, rate, extra_breaks=(), nodes=16, base_panels=8):
    """Quadrature rule over the support of f (a source or one half of
    it) resolving kernels that oscillate at most like exp(i rate y).

    Splits at the interface, at the source's own breakpoints, and at any
    extra points (e.g. the kink of |x - y|), and narrows the panels at
    the source's flat ends (the edges of a bump).  Grid sources integrate
    cell by cell instead of with blanket panel counts.
    """
    sup = f.support
    if sup is None:
        return np.empty(0), np.empty(0)
    lo, hi = sup
    breaks = set(f.breakpoints)
    breaks.update(t for t in extra_breaks if lo < t < hi)
    if 0.0 > lo and 0.0 < hi:
        breaks.add(0.0)
    if _is_grid(f):
        edges = np.unique(np.concatenate([[lo, hi], sorted(breaks)]))
        return cell_rule(edges, osc_rate=rate, nodes=_panel_nodes(f, nodes))
    return composite_rule(lo, hi, sorted(breaks), osc_rate=rate,
                          base_panels=base_panels, nodes=nodes, flat_ends=f.flat_ends)


def _is_grid(f):
    return (getattr(f, "kind", None) or getattr(f.parent, "kind", None)) == "grid"


def _panel_nodes(f, nodes):
    """Gauss nodes per panel of ``source_rule(f, ..., nodes=nodes)``: the
    rule is a run of panels of this many consecutive nodes."""
    return max(4, nodes // 2) if _is_grid(f) else nodes


def forward_field(f, medium, omega, x, nodes=16, base_panels=8):
    """u(x, omega) for a single evaluation point x in [-1, 1]."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if abs(x) > 1.0:
        raise ValueError("evaluation point outside [-1, 1]")
    y, w = source_rule(f, medium.c_max * omega, extra_breaks=(x,), nodes=nodes,
                       base_panels=base_panels)
    if len(y) == 0:
        return 0.0 + 0.0j
    return complex(np.sum(w * green_eval(x, y, medium, omega) * f(y)))


def forward_field_dx(f, medium, omega, x, nodes=16, base_panels=8):
    """Analytic derivative u'(x, omega), differentiating g under the integral."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    y, w = source_rule(f, medium.c_max * omega, extra_breaks=(x,), nodes=nodes,
                       base_panels=base_panels)
    if len(y) == 0:
        return 0.0 + 0.0j
    return complex(np.sum(w * green_dx(x, y, medium, omega) * f(y)))


def _cores():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None  # (threads, executor) of the helper pool, made on first use
_pool_lock = threading.Lock()


def _helpers(threads):
    """An executor with at least ``threads`` helper threads, shared by
    every caller in the process.  concurrent.futures is imported here so
    that importing helmlayer starts no thread and loads no executor."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < threads:
            from concurrent.futures import ThreadPoolExecutor

            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="helmlayer"))
        return _pool[1]


def _forget_pool():
    # a forked child holds none of the parent's threads, so it makes its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _beside(fn):
    """Start ``fn()`` beside the calling thread and return a function
    that waits for its result.  With more than one CPU, ``fn`` runs on
    a helper thread; with one, it runs at once, before this returns."""
    if _cores() > 1:
        return _helpers(1).submit(fn).result
    result = fn()
    return lambda: result


def _endpoint_map(omegas, y, weights, medium, chunk=32768):
    """Endpoint fields (u(-1), u(+1)) of the point sources weights_j at
    y_j (weights may carry trailing columns, one field per column).

    The frequencies are split into balanced blocks of at most ``chunk``
    kernel entries (rows times len(y)), but never of one row.  The
    default gives blocks of about 27 rows for the 1212 nodes of the
    default operator and of 80 rows for a 384-node source rule.
    Each block forms its kernel rows g(+-1, y_j; omega) from the layer
    table and multiplies them by the weights, cast to complex once, into
    its own rows of the result.  The calling thread and one helper thread
    per further CPU each take the next block until none is left, so a
    thread slowed by other load does not hold the rest back; one block,
    or one CPU, runs in the calling thread alone.  A helper that has not
    started by the time the blocks run out is cancelled, not awaited, so
    a map called from a pool thread never waits on its own pool.

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
    pool = _helpers(workers - 1) if workers > 1 else None
    futures = [pool.submit(run) for _ in range(workers - 1)]
    try:
        run()
    finally:
        for fut in futures:
            if not fut.cancel():
                fut.result()
    return u_minus, u_plus


def boundary_sweep(f, medium, grid, nodes=16, base_panels=8, chunk=32768):
    """Endpoint data u(+-1, omega) for every frequency of the grid.

    One quadrature rule resolved at the largest frequency serves the
    whole sweep; frequencies are independent, evaluated in blocks of at
    most ``chunk`` kernel entries spread over the CPUs (``_endpoint_map``)
    and assembled in grid order.
    """
    om = grid.omegas
    y, w = source_rule(f, medium.c_max * float(om[-1]), nodes=nodes,
                       base_panels=base_panels)
    u_minus, u_plus = _endpoint_map(om, y, w * f(y), medium, chunk)
    return BoundaryData(grid, u_minus, u_plus)


def fd_oracle(f, medium, omega, nodes):
    """Second-order finite-difference solve of u'' + kappa^2 u = -f.

    ``nodes`` counts intervals of the uniform grid on [-1, 1] and must be
    even so x = 0 is a grid node (the interface node uses the mean of the
    one-sided kappa^2 values).  The outgoing conditions are closed with
    one-sided second-order stencils; the banded complex system is solved
    directly.  Returns (x, u).  scipy.linalg is imported here, on the first
    call, so that importing helmlayer does not load scipy.
    """
    from scipy.linalg import solve_banded

    if nodes < 64:
        raise ValueError("need at least 64 intervals")
    if nodes % 2:
        raise ValueError("interval count must be even so x = 0 is a node")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    k1, k2 = wavenumbers(medium, omega)
    x = np.linspace(-1.0, 1.0, nodes + 1)
    h = 2.0 / nodes
    ksq = np.where(x > 0, k1 ** 2, k2 ** 2).astype(complex)
    ksq[nodes // 2] = 0.5 * (k1 ** 2 + k2 ** 2)

    n_pts = nodes + 1
    ab = np.zeros((5, n_pts), dtype=complex)  # two bands each side
    rhs = np.zeros(n_pts, dtype=complex)
    idx = np.arange(1, nodes)
    ab[2, idx] = ksq[idx] - 2.0 / h ** 2
    ab[1, idx + 1] = 1.0 / h ** 2
    ab[3, idx - 1] = 1.0 / h ** 2
    rhs[idx] = -f(x[idx])
    # u'(-1) + i k2 u(-1) = 0
    ab[2, 0] = -3.0 / (2.0 * h) + 1j * k2
    ab[1, 1] = 4.0 / (2.0 * h)
    ab[0, 2] = -1.0 / (2.0 * h)
    # u'(1) - i k1 u(1) = 0
    ab[2, n_pts - 1] = 3.0 / (2.0 * h) - 1j * k1
    ab[3, n_pts - 2] = -4.0 / (2.0 * h)
    ab[4, n_pts - 3] = 1.0 / (2.0 * h)
    try:
        u = solve_banded((2, 2), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular finite-difference system at omega={omega}, nodes={nodes}") from exc
    return x, u


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


def interface_traces(f, medium, omega, nodes=16, base_panels=8):
    """Quadrature traces u(0), u'(0) and their transform predictions."""
    from .fourier import halfline_ft

    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    k1, k2 = wavenumbers(medium, omega)
    u0 = forward_field(f, medium, omega, 0.0, nodes=nodes, base_panels=base_panels)
    du0 = forward_field_dx(f, medium, omega, 0.0, nodes=nodes, base_panels=base_panels)

    pair = split_source(f)
    f1m = halfline_ft(pair, "right", -k1, nodes=nodes, base_panels=base_panels)
    f2p = halfline_ft(pair, "left", k2, nodes=nodes, base_panels=base_panels)

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
    return TraceReport(u0, du0, u0_pred, du0_pred, z_meas, z_pred, res)


def check_radiation(f, medium, omega, nodes=16, base_panels=8):
    """Outgoing-condition residuals (|u'(-1) + i k2 u(-1)|, |u'(1) - i k1 u(1)|)."""
    k1, k2 = wavenumbers(medium, omega)
    um = forward_field(f, medium, omega, -1.0, nodes=nodes, base_panels=base_panels)
    dum = forward_field_dx(f, medium, omega, -1.0, nodes=nodes, base_panels=base_panels)
    up = forward_field(f, medium, omega, 1.0, nodes=nodes, base_panels=base_panels)
    dup = forward_field_dx(f, medium, omega, 1.0, nodes=nodes, base_panels=base_panels)
    return abs(dum + 1j * k2 * um), abs(dup - 1j * k1 * up)


CSV_HEADER = ["omega", "re_u_minus", "im_u_minus", "re_u_plus", "im_u_plus"]


def write_boundary_csv(data, path):
    """Endpoint data as CSV, full double precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for om, um, up in zip(data.grid.omegas, data.u_minus, data.u_plus):
            writer.writerow([f"{v:.17g}" for v in (om, um.real, um.imag, up.real, up.imag)])


def read_boundary_csv(path, K=None):
    """Read endpoint data written by ``write_boundary_csv``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        rows = [[float(v) for v in row] for row in reader if row]
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        raise ValueError(f"no data rows in {path}")
    bad = ~np.all(np.isfinite(arr), axis=1)
    if bad.any():
        raise ValueError(f"non-finite value in data row {np.argmax(bad) + 1} of {path}")
    om = arr[:, 0]
    grid = FrequencyGrid(om, K if K is not None else float(om[-1]))
    return BoundaryData(grid, arr[:, 1] + 1j * arr[:, 2], arr[:, 3] + 1j * arr[:, 4])
