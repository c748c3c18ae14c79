"""Outside-in span tracer for the ``helmlayer`` modules.

``install`` rebinds every public function of each ``helmlayer`` module
in every module namespace that holds it (so ``forward.boundary_sweep``
is replaced in ``forward``, ``cli``, ``fourier`` and the package, and the
lazy ``from .forward import boundary_sweep`` inside ``inverse`` picks up
the wrapper too), plus the few methods that carry layer work.  No file
of the program changes.  Spans are kept in memory as
``[name, parent, start, end, size]`` and turned into per-layer metrics by
``layer_metrics``; a layer's self time is its span duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("model", "quadrature", "greens", "forward", "fourier", "inverse", "cli")

# Methods traced on their class: (module, class, method).
METHODS = (
    ("model", "SourceSpec", "__call__"),
    ("model", "HalfSource", "__call__"),
    ("inverse", "ForwardOperator", "svd"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, size=None, before=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            pre = before(args, kwargs) if before is not None else None
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(args, kwargs, out, pre)
            return out

        return traced


# ---------------------------------------------------------------- sizes
# Each returns the size recorded on a span, computed from the call's
# arguments and return value only.

def _rule_nodes(args, kwargs, out, pre):
    return int(len(out[0]))


def _arg(args, kwargs, index, name, fn):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return inspect.signature(fn).parameters[name].default


def _sweep_size(fn):
    def size(args, kwargs, out, pre):
        return int(len(_arg(args, kwargs, 2, "grid", fn)))
    return size


def _halfline_size(fn):
    def size(args, kwargs, out, pre):
        n_args = int(np.size(_arg(args, kwargs, 2, "xis", fn)))
        chunk = int(_arg(args, kwargs, 5, "chunk", fn))
        return [n_args, min(chunk, n_args)]
    return size


def _matrix_entries(args, kwargs, out, pre):
    return int(out.matrix.size)


def _svd_was_cached(args, kwargs):
    return args[0]._svd is not None


def _svd_factorised(args, kwargs, out, pre):
    return 0 if pre else 1


def _ladder_steps(fn):
    # Residual evaluations made by morozov_lambda: it scans the ladder from
    # the top and stops at the first value that meets the target, so the
    # count follows from where the returned lambda sits.
    def size(args, kwargs, out, pre):
        ladder = _arg(args, kwargs, 3, "ladder", fn)
        if ladder is None:
            # the call has factored the operator; read the cached SVD so
            # that sizing adds no svd span
            s0 = args[0]._svd[1][0]
            ladder = s0 * np.logspace(-8.0, 0.0, 25)
        ladder = np.sort(np.asarray(ladder, dtype=float))
        return int(len(ladder) - np.argmin(np.abs(ladder - out)))
    return size


def _sizers(hl):
    return {
        "quadrature.composite_rule": (_rule_nodes, None),
        "quadrature.cell_rule": (_rule_nodes, None),
        "forward.source_rule": (_rule_nodes, None),
        "forward.boundary_sweep": (_sweep_size(hl.forward.boundary_sweep), None),
        "fourier.halfline_ft": (lambda a, k, o, p: [1, 1], None),
        "fourier.halfline_ft_many": (_halfline_size(hl.fourier.halfline_ft_many), None),
        "inverse.assemble_operator": (_matrix_entries, None),
        "inverse.ForwardOperator.svd": (_svd_factorised, _svd_was_cached),
        "inverse.morozov_lambda": (_ladder_steps(hl.inverse.morozov_lambda), None),
    }


def install(tracer, hl):
    """Wrap the public functions and traced methods of every layer module."""
    modules = {name: getattr(hl, name) for name in LAYERS}
    sizers = _sizers(hl)
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            size, before = sizers.get(name, (None, None))
            wrapped[id(obj)] = tracer.wrap(name, obj, size, before)
    namespaces = [m for n, m in sys.modules.items()
                  if n == hl.__name__ or n.startswith(hl.__name__ + ".")]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            w = wrapped.get(id(obj))
            if w is not None:
                setattr(ns, attr, w)
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{cls_name}.{meth}"
        size, before = sizers.get(name, (None, None))
        setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], size, before))


# --------------------------------------------------------------- metrics

RULES = {"quadrature.composite_rule", "quadrature.cell_rule", "forward.source_rule"}
RULE_ALL = RULES | {"quadrature.gauss_rule"}
SOURCE_EVAL = {"model.SourceSpec.__call__", "model.HalfSource.__call__", "model.eval_source"}
FIELD = {"forward.forward_field", "forward.forward_field_dx"}
FORWARD_CSV = {"forward.write_boundary_csv", "forward.read_boundary_csv"}
HALFLINE = {"fourier.halfline_ft", "fourier.halfline_ft_many"}
ENERGY = {"fourier.data_energy", "fourier.data_energy_analytic",
          "fourier.data_energy_from_sweep", "fourier.data_energy_constant"}
SOLVES = {"inverse.reconstruct_tikhonov", "inverse.reconstruct_tsvd",
          "inverse.reconstruct_homogeneous"}
CLI_REQUESTS = {"cli.cmd_verify", "cli.cmd_forward", "cli.cmd_reconstruct", "cli.cmd_sweep",
                "cli.run_verify", "cli.run_sweep", "cli.main"}
CLI_CSV = {"cli.write_reconstruction_csv", "cli.write_sweep_csv", "cli.read_sweep_csv"}

def unit(name):
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def layer_metrics(spans):
    """Per-layer metrics from a finished span list."""
    n = len(spans)
    names = [s[0] for s in spans]
    parents = [s[1] for s in spans]
    dur = np.array([s[3] - s[2] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    children = [[] for _ in range(n)]
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
            children[p].append(i)
    self_t = dur - child

    def idx(group):
        return [i for i in range(n) if names[i] in group]

    def outer(group):
        # spans of the group not nested directly in a span of the same group
        return [i for i in idx(group) if parents[i] < 0 or names[parents[i]] not in group]

    def self_s(group):
        return float(sum(self_t[i] for i in idx(group)))

    def incl_s(group):
        return float(sum(dur[i] for i in outer(group)))

    def child_nodes(i):
        return sum(spans[c][4] for c in children[i] if names[c] in RULES)

    rules = outer(RULES)
    greens = {nm for nm in set(names) if nm.startswith("greens.")}
    cli_all = {nm for nm in set(names) if nm.startswith("cli.")}
    sweeps = idx({"forward.boundary_sweep"})
    halflines = idx(HALFLINE)
    svds = idx({"inverse.ForwardOperator.svd"})
    morozov = idx({"inverse.morozov_lambda"})
    return {
        "quadrature.rule_calls": len(rules),
        "quadrature.rule_s": self_s(RULE_ALL),
        "quadrature.nodes": int(sum(spans[i][4] for i in rules)),
        "greens.eval_calls": len(outer(greens)),
        "greens.eval_s": self_s(greens),
        "model.source_eval_calls": len(outer(SOURCE_EVAL)),
        "model.source_eval_s": self_s(SOURCE_EVAL),
        "model.l2_norm_s": self_s({"model.l2_norm_sq"}),
        "forward.sweep_calls": len(sweeps),
        "forward.sweep_s": self_s({"forward.boundary_sweep"}),
        "forward.kernel_entries": int(sum(2 * spans[i][4] * child_nodes(i) for i in sweeps)),
        "forward.field_calls": len(idx(FIELD)),
        "forward.field_s": self_s(FIELD),
        "forward.fd_s": self_s({"forward.fd_oracle"}),
        "forward.csv_s": self_s(FORWARD_CSV),
        "fourier.halfline_calls": len(halflines),
        "fourier.halfline_s": self_s(HALFLINE),
        "fourier.expsum_terms": int(sum(spans[i][4][0] * child_nodes(i) for i in halflines)),
        "fourier.phase_block_bytes": int(max([spans[i][4][1] * child_nodes(i) * 16
                                              for i in halflines], default=0)),
        "fourier.amplitude_s": incl_s({"fourier.endpoint_amplitude"}),
        "fourier.energy_s": incl_s(ENERGY),
        "inverse.assemble_calls": len(idx({"inverse.assemble_operator"})),
        "inverse.assemble_s": self_s({"inverse.assemble_operator"}),
        "inverse.matrix_entries": int(sum(spans[i][4] for i in idx({"inverse.assemble_operator"}))),
        "inverse.svd_calls": len(svds),
        "inverse.svd_factorisations": int(sum(spans[i][4] for i in svds)),
        "inverse.svd_s": self_s({"inverse.ForwardOperator.svd"}),
        "inverse.morozov_calls": len(morozov),
        "inverse.morozov_s": self_s({"inverse.morozov_lambda"}),
        "inverse.ladder_steps": int(sum(spans[i][4] for i in morozov)),
        "inverse.solve_calls": len(idx(SOLVES)),
        "inverse.solve_s": self_s(SOLVES),
        "cli.request_calls": len(outer(CLI_REQUESTS)),
        "cli.request_s": self_s(cli_all - CLI_CSV),
        "cli.csv_s": self_s(CLI_CSV),
    }


def self_time_by_name(spans):
    """Total self time per span name, largest first (for the trace report)."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    totals = {}
    for i, s in enumerate(spans):
        totals[s[0]] = totals.get(s[0], 0.0) + (s[3] - s[2]) - child[i]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
