"""Workload inputs, runners and output checks.

Each workload is built from the benchmark seed alone; the program only
sees the configs and sources made here.  ``RUNS[name]`` executes one
pass of a workload through the public ``helmlayer`` API and returns what
the program produced, with the time of each operation in the pass;
``CHECKS[name]`` compares that output with invariants, pinned bounds
and, when one is stored for the seed, the seed-state reference.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from clock import OpClock

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Relative tolerance for comparisons with stored references.  The outputs
# are deterministic for a seed, but BLAS thread count and summation order
# move them in the last digits.
REF_RTOL = 1e-6

# requests: pinned upper bounds on the relative L2 reconstruction error,
# per inverse method.  The seed-state maxima over seeds 0-59 were 0.026
# (tikhonov, Morozov at eps 1e-2), 0.011 (tsvd) and 0.026
# (homogeneous_ft); the bounds leave about 2x headroom for unseen seeds.
REQUEST_ERR_BOUND = {"tikhonov": 0.06, "tsvd": 0.03, "homogeneous_ft": 0.06}

# sweep: every cell's relative error must stay below this bound
SWEEP_ERR_BOUND = 1.5


@dataclass
class PassResult:
    """What one pass of a workload produced.

    ``figure`` is the workload's headline number, fixed for a seed: the
    median relative L2 error of the reconstructions (sweep, requests) or
    the energy constant (spectral).  ``clock`` holds the time of each
    operation of the pass; the same operation has the same name in every
    pass, so run.py can compare it across passes.
    """

    attempted: int
    failed: int
    figure: float
    outputs: dict
    clock: OpClock


# ---------------------------------------------------------------- sweep

# Trials per sweep cell.  The default RunConfig makes 10; two keep a pass
# to about 3.5 s, short enough to repeat it often within a run.
SWEEP_TRIALS = 2


def sweep_inputs(hl, seed, smoke=False):
    """The default sweep at the workload seed, as one run_sweep call per
    frequency cap K; each call assembles its operator and solves every
    (eps, n, trial) cell with it."""
    cfg = hl.cli.RunConfig(seed=seed, sweep_trials=SWEEP_TRIALS)
    if smoke:
        cfg = replace(cfg, n_omega=80, n_basis=41, sweep_K_list=(5.0, 20.0),
                      sweep_eps_list=(0.0, 1e-2), sweep_n_list=(1, 3),
                      sweep_trials=1)
    return {"cfgs": [replace(cfg, sweep_K_list=(K,)) for K in cfg.sweep_K_list]}


def sweep_run(hl, inputs, workdir):
    clock, records = OpClock(), []
    for cfg in inputs["cfgs"]:
        clock.start()
        records += hl.cli.run_sweep(cfg)
        clock.stop(f"K{cfg.sweep_K_list[0]:g}")
    failed = sum(1 for r in records
                 if r.error or not (math.isfinite(r.l2_error) and math.isfinite(r.reg_param)))
    errs = [r.l2_error for r in records if not r.error]
    cells = [[r.K, r.eps, r.n, r.reg_param, r.l2_error, r.error] for r in records]
    figure = float(np.median(errs)) if errs else float("nan")
    return PassResult(len(records), failed, figure, {"cells": cells}, clock)


def sweep_check(out, seed, smoke):
    problems = []
    cells = out.outputs["cells"]
    for K, eps, n, reg, err, msg in cells:
        tag = f"cell K={K:g} eps={eps:g} n={n}"
        if msg:
            problems.append(f"{tag}: failed: {msg}")
        elif not (math.isfinite(err) and 0 <= err < SWEEP_ERR_BOUND):
            problems.append(f"{tag}: l2_error {err!r} outside [0, {SWEEP_ERR_BOUND})")
        elif not (math.isfinite(reg) and reg > 0):
            problems.append(f"{tag}: reg_param {reg!r} not positive")
    ref = None if smoke else load_reference("sweep", seed)
    if ref is not None:
        if len(ref["l2_error"]) != len(cells):
            problems.append(f"{len(cells)} cells, reference has {len(ref['l2_error'])}")
        else:
            for i, (K, eps, n, reg, err, _) in enumerate(cells):
                for label, got in (("reg_param", reg), ("l2_error", err)):
                    if not _close(got, ref[label][i]):
                        problems.append(f"cell K={K:g} eps={eps:g} n={n}: {label} {got!r} "
                                        f"!= reference {ref[label][i]!r}")
    return problems


# ------------------------------------------------------------- spectral

def spectral_inputs(hl, seed, smoke=False):
    """The energy-constant experiment: bump draws against the data energy
    up to the cap.

    The acceptance test draws bumps with the left end in [-0.6, 0] and
    the width in [0.3, 0.6].  The cost of a draw, and the memory it
    takes, change with its support, so here the 20 supports are fixed on
    a 5 x 4 grid over those ranges and every seed asks for the same work.
    The seed draws each bump's amplitude from [0.5, 2] and a modulation
    exp(i nu x) with nu in [0, 3], which changes the energy ratio but not
    the quadrature the program builds.
    """
    medium = hl.model.Medium(1.0, 1.5)
    trials = 3 if smoke else 20
    grid = [(a, w) for a in np.linspace(-0.58, -0.02, 5) for w in np.linspace(0.32, 0.58, 4)]

    def sampler(r, i):
        a, w = grid[i % len(grid)]
        return hl.model.SourceSpec.modulated_bump(a, a + w, r.uniform(0.0, 3.0),
                                                  amplitude=r.uniform(0.5, 2.0))

    return {
        "medium": medium,
        "sampler": sampler,
        "energy_cap": 50.0 if smoke else 200.0,
        "energy_trials": trials,
        "energy_seed": int(np.random.SeedSequence((seed, 3)).generate_state(1)[0]),
    }


def spectral_run(hl, inputs, workdir):
    trials = inputs["energy_trials"]
    # Each draw is an operation of its own: it runs from one call of the
    # sampler to the next (the last one to the return).
    clock, drawn = OpClock(), []

    def sampler(r):
        if drawn:
            clock.stop(f"draw{len(drawn) - 1}")
        drawn.append(inputs["sampler"](r, len(drawn)))
        clock.start()
        return drawn[-1]

    try:
        const, ratios = hl.fourier.data_energy_constant(
            sampler, inputs["medium"], inputs["energy_cap"], trials, inputs["energy_seed"])
        clock.stop(f"draw{len(drawn) - 1}")
        ratios = [float(r) for r in ratios]
        failed = sum(1 for r in ratios if not (math.isfinite(r) and r > 0))
        const = float(const)
    except (ValueError, ArithmeticError) as exc:
        failed = trials
        const, ratios = repr(exc), []
    figure = const if isinstance(const, float) else float("nan")
    return PassResult(trials, failed, figure, {"energy_constant": const, "ratios": ratios},
                      clock)


def spectral_check(out, seed, smoke):
    problems = []
    const, ratios = out.outputs["energy_constant"], out.outputs["ratios"]
    if not (isinstance(const, float) and math.isfinite(const) and const > 0):
        problems.append(f"energy constant {const!r} is not a finite positive number")
    problems += [f"draw {i}: energy ratio {r!r} is not a finite positive number"
                 for i, r in enumerate(ratios) if not (math.isfinite(r) and r > 0)]
    ref = None if smoke else load_reference("spectral", seed)
    if ref is not None and not problems:
        if not _close(const, ref["energy_constant"]):
            problems.append(f"energy constant {const!r} != reference {ref['energy_constant']!r}")
        problems += [f"draw {i}: energy ratio {r!r} != reference {want!r}"
                     for i, (r, want) in enumerate(zip(ratios, ref["ratios"]))
                     if not _close(r, want)]
    return problems


# ------------------------------------------------------------- requests

SOURCE_CYCLE = ("bump", "bspline", "modulated_bump")


def requests_inputs(hl, seed, smoke=False):
    """One round per source kind; each round is forward -> reconstruct with
    Tikhonov (Morozov, eps 1e-2), TSVD and direct Fourier (c2 = c1)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4)))
    base = hl.cli.RunConfig(seed=seed)
    if smoke:
        base = replace(base, n_omega=100, n_basis=41, tsvd_k=20, K=20.0)
    rounds = []
    for kind in SOURCE_CYCLE[:1] if smoke else SOURCE_CYCLE:
        width = rng.uniform(0.6, 1.2)
        a = rng.uniform(-0.8, 0.8 - width)
        src = replace(base, source_kind=kind, source_a=a, source_b=a + width,
                      source_order=int(rng.integers(2, 4)),
                      source_mod_freq=rng.uniform(2.0, 10.0))
        rounds.append([
            replace(src, method="tikhonov", eps=1e-2),
            replace(src, method="tsvd"),
            replace(src, method="homogeneous_ft", c2=src.c1),
        ])
    # The identity battery runs as ``helmlayer verify`` runs it without
    # --seed, at the default noise.seed; the request sources carry the
    # workload seed.  At some other seeds (13 and 16 among them) the
    # battery's endpoint-amplitude check reports FAIL: the slack it
    # computes is never applied to the 1e-12 threshold.
    return {"warmup": base, "rounds": rounds, "verify": hl.cli.RunConfig()}


def requests_run(hl, inputs, workdir):
    cli = hl.cli
    workdir = Path(workdir)
    exits, recs, clock = [], [], OpClock()
    for r, cfgs in enumerate(inputs["rounds"]):
        for cfg in cfgs:
            data = workdir / f"data_{r}_{cfg.method}.csv"
            rec = workdir / f"rec_{r}_{cfg.method}.csv"
            clock.start()
            exits.append(_guarded(cli.cmd_forward, cfg, str(data)))
            clock.stop(f"forward_{r}_{cfg.method}")
            clock.start()
            code = _guarded(cli.cmd_reconstruct, cfg, str(data), str(rec))
            clock.stop(f"reconstruct_{r}_{cfg.method}")
            exits.append(code)
            recs.append((cfg.method, str(rec) if code == 0 else None))
    clock.start()
    try:
        lines, failures = cli.run_verify(inputs["verify"])
    except Exception as exc:  # an exception here is a failed request, reported below
        lines, failures = [f"verify raised {exc!r}"], ["verify"]
    clock.stop("verify")
    errors = [(method, _recon_rel_error(path) if path else float("nan"))
              for method, path in recs]
    attempted = len(exits) + 1
    failed = sum(1 for c in exits if c != 0) + (1 if failures else 0)
    failed += sum(1 for _, e in errors if not math.isfinite(e))
    finite = [e for _, e in errors if math.isfinite(e)]
    figure = float(np.median(finite)) if finite else float("nan")
    return PassResult(attempted, failed, figure,
                      {"exits": exits, "errors": errors, "verify": lines,
                       "verify_failures": failures}, clock)


def requests_warmup(hl, inputs, workdir):
    return _guarded(hl.cli.cmd_forward, inputs["warmup"], str(Path(workdir) / "warmup.csv"))


def requests_check(out, seed, smoke):
    problems = []
    o = out.outputs
    problems += [f"request {i} exited {c}" for i, c in enumerate(o["exits"]) if c != 0]
    problems += [f"verify: {line}" for line in o["verify"] if not line.rstrip().endswith("PASS")]
    for method, err in o["errors"]:
        bound = REQUEST_ERR_BOUND[method]
        if not (math.isfinite(err) and err < bound):
            problems.append(f"{method} relative error {err!r} not below {bound}")
    ref = None if smoke else load_reference("requests", seed)
    if ref is not None:
        if len(ref["errors"]) != len(o["errors"]):
            problems.append(f"{len(o['errors'])} reconstructions, reference has "
                            f"{len(ref['errors'])}")
        for (method, err), (_, want) in zip(o["errors"], ref["errors"]):
            if not _close(err, want):
                problems.append(f"{method} relative error {err!r} != reference {want!r}")
    return problems


def _guarded(fn, *args):
    # A request that raises is a failed request, as a CLI run would exit non-zero.
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - every failure counts, whatever its type
        return -1


def _recon_rel_error(path):
    """Relative trapezoid L2 error between the estimate and truth columns."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    arr = np.asarray(rows[1:], dtype=float)
    x = arr[:, 0]
    est = arr[:, 1] + 1j * arr[:, 2]
    true = arr[:, 3] + 1j * arr[:, 4]
    num = np.trapezoid(np.abs(est - true) ** 2, x)
    den = np.trapezoid(np.abs(true) ** 2, x)
    return float(np.sqrt(num / den))


# -------------------------------------------------------------- common

INPUTS = {"sweep": sweep_inputs, "spectral": spectral_inputs, "requests": requests_inputs}
RUNS = {"sweep": sweep_run, "spectral": spectral_run, "requests": requests_run}
CHECKS = {"sweep": sweep_check, "spectral": spectral_check, "requests": requests_check}
WARMUPS = {"requests": requests_warmup}


def _close(got, want):
    if not (isinstance(got, float) and isinstance(want, float)):
        return got == want
    return math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=0.0)


def reference_path(name):
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name, seed):
    """The stored outputs of the seed-state program for this seed, or None."""
    path = reference_path(name)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def reference_payload(name, out):
    """The part of a pass's output stored as the reference for its seed,
    rounded to 12 significant digits (comparisons use REF_RTOL)."""
    o = out.outputs

    def r(v):
        return float(f"{v:.12g}") if isinstance(v, float) else v

    if name == "sweep":
        return {"reg_param": [r(c[3]) for c in o["cells"]],
                "l2_error": [r(c[4]) for c in o["cells"]]}
    if name == "spectral":
        return {"energy_constant": r(o["energy_constant"]),
                "ratios": [r(v) for v in o["ratios"]]}
    return {"errors": [[m, r(e)] for m, e in o["errors"]]}
