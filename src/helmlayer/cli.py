"""Command-line front end: verify / forward / reconstruct / sweep.

Configuration is a flat ``section.key = value`` text file ('#' starts a
comment); every key has a documented default so an empty file is a valid
configuration.  All subcommands are deterministic for a fixed config,
seed and BLAS thread count.  Exit codes: 0 success, 2 validation error,
3 numerical-check failure (including output that is not finite, in which
case no file is written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .model import (FrequencyGrid, Medium, SourceSpec, l2_norm_sq,
                    split_source)
from .greens import (_endpoint_rows, eval_from_coeffs, green_coeffs_closed,
                     green_coeffs_via_linear_system, green_eval,
                     interface_residuals)
from .forward import (_beside, boundary_sweep, check_radiation, fd_oracle,
                      forward_field, interface_traces, read_boundary_csv,
                      source_rule, write_boundary_csv)
from .fourier import (data_energy, data_energy_from_sweep, epsilon_norm,
                      endpoint_amplitude_bound)
from .inverse import (add_noise, assemble_operator, morozov_lambda,
                      recon_error, reconstruct_homogeneous,
                      reconstruct_tikhonov, reconstruct_tsvd)

__all__ = [
    "ConfigError",
    "RunConfig",
    "ExperimentRecord",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "build_grid",
    "build_source",
    "cmd_verify",
    "cmd_forward",
    "cmd_reconstruct",
    "cmd_sweep",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_IO = 4

METHODS = ("tikhonov", "tsvd", "homogeneous_ft")
# the configurable source kinds: every model kind but a grid of values
SOURCE_KINDS = tuple(k for k in model.SOURCE_KINDS if k != "grid")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with spec'd defaults."""

    c1: float = 1.0
    c2: float = 1.5
    K: float = 40.0
    n_omega: int = 400
    omega_floor: float | None = None  # defaults to K / n_omega
    source_kind: str = "bump"
    source_a: float = -0.6
    source_b: float = 0.6
    source_order: int = 2
    source_mod_freq: float = 8.0
    source_amp: complex = 1.0 + 0.0j
    method: str = "tikhonov"
    lam: float = 1e-6
    tsvd_k: int = 50
    n_basis: int = 201
    support_a: float = -0.95
    support_b: float = 0.95
    eps: float = 0.0
    seed: int = 7
    sweep_K_list: tuple = (5.0, 10.0, 20.0, 40.0)
    sweep_eps_list: tuple = (0.0, 1e-1, 1e-2, 1e-3)
    sweep_n_list: tuple = (1, 2, 3)
    sweep_trials: int = 10
    sweep_support_a: float = 0.1
    sweep_support_b: float = 0.9

    def __post_init__(self):
        amp = complex(self.source_amp)
        floats = [(key, getattr(self, attr)) for key, attr in _FLOAT_KEYS.items()]
        floats += [("sweep.K_list", v) for v in self.sweep_K_list]
        floats += [("sweep.eps_list", v) for v in self.sweep_eps_list]
        floats += [("source.amp_re", amp.real), ("source.amp_im", amp.imag)]
        for key, v in floats:
            if v is not None and not np.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {v}")
        if self.c1 <= 0:
            raise ConfigError("medium.c1 must be positive")
        if self.c2 <= 0:
            raise ConfigError("medium.c2 must be positive")
        if self.K <= 0:
            raise ConfigError("frequency.K must be positive")
        if self.n_omega < 1:
            raise ConfigError("frequency.n_omega must be at least 1")
        floor = self.omega_floor
        if floor is not None and not (0 < floor <= self.K):
            raise ConfigError("frequency.omega_floor must lie in (0, K]")
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigError(f"source.kind must be one of {SOURCE_KINDS}")
        if not (-1.0 < self.source_a < self.source_b < 1.0):
            raise ConfigError("source support must satisfy -1 < a < b < 1")
        if self.source_kind == "bspline" and self.source_order < 1:
            raise ConfigError("source.order must be a positive integer")
        if self.method not in METHODS:
            raise ConfigError(f"inverse.method must be one of {METHODS}")
        if self.lam <= 0:
            raise ConfigError("inverse.lambda must be positive")
        if self.tsvd_k < 1:
            raise ConfigError("inverse.k must be at least 1")
        if self.n_basis < 8:
            raise ConfigError("inverse.n_basis must be at least 8")
        if not (-1.0 < self.support_a < self.support_b < 1.0):
            raise ConfigError("inverse support must satisfy -1 < a < b < 1")
        if self.eps < 0:
            raise ConfigError("noise.eps must be non-negative")
        for key, vals in (("sweep.K_list", self.sweep_K_list),
                          ("sweep.eps_list", self.sweep_eps_list),
                          ("sweep.n_list", self.sweep_n_list)):
            if len(vals) == 0:
                raise ConfigError(f"{key} must not be empty")
        if any(k <= 0 for k in self.sweep_K_list):
            raise ConfigError("sweep.K_list entries must be positive")
        if any(e < 0 for e in self.sweep_eps_list):
            raise ConfigError("sweep.eps_list entries must be non-negative")
        if any(n < 1 for n in self.sweep_n_list):
            raise ConfigError("sweep.n_list entries must be positive integers")
        if self.sweep_trials < 1:
            raise ConfigError("sweep.trials must be at least 1")
        if not (-1.0 < self.sweep_support_a < self.sweep_support_b < 1.0):
            raise ConfigError("sweep support must satisfy -1 < a < b < 1")


_FLOAT_KEYS = {
    "medium.c1": "c1",
    "medium.c2": "c2",
    "frequency.K": "K",
    "frequency.omega_floor": "omega_floor",
    "source.a": "source_a",
    "source.b": "source_b",
    "source.mod_freq": "source_mod_freq",
    "inverse.lambda": "lam",
    "inverse.support_a": "support_a",
    "inverse.support_b": "support_b",
    "noise.eps": "eps",
    "sweep.support_a": "sweep_support_a",
    "sweep.support_b": "sweep_support_b",
}
_INT_KEYS = {
    "frequency.n_omega": "n_omega",
    "source.order": "source_order",
    "inverse.k": "tsvd_k",
    "inverse.n_basis": "n_basis",
    "noise.seed": "seed",
    "sweep.trials": "sweep_trials",
}
_STR_KEYS = {
    "source.kind": "source_kind",
    "inverse.method": "method",
}


def parse_config_text(text, origin="<config>"):
    """Parse flat 'section.key = value' lines into a RunConfig."""
    values = {}
    amp_re, amp_im = 1.0, 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key in _FLOAT_KEYS:
                values[_FLOAT_KEYS[key]] = float(val)
            elif key in _INT_KEYS:
                values[_INT_KEYS[key]] = int(val)
            elif key in _STR_KEYS:
                values[_STR_KEYS[key]] = val
            elif key == "source.amp_re":
                amp_re = float(val)
            elif key == "source.amp_im":
                amp_im = float(val)
            elif key == "sweep.K_list":
                values["sweep_K_list"] = tuple(float(v) for v in val.split(","))
            elif key == "sweep.eps_list":
                values["sweep_eps_list"] = tuple(float(v) for v in val.split(","))
            elif key == "sweep.n_list":
                values["sweep_n_list"] = tuple(int(v) for v in val.split(","))
            else:
                raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{origin}:{lineno}: bad value for {key!r}: {val!r}") from exc
    if amp_re != 1.0 or amp_im != 0.0:
        values["source_amp"] = complex(amp_re, amp_im)
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read(), origin=str(path))


def serialize_config(cfg):
    """Configuration as canonical flat text (parses back to an equal config)."""
    lines = [
        f"medium.c1 = {cfg.c1:.17g}",
        f"medium.c2 = {cfg.c2:.17g}",
        f"frequency.K = {cfg.K:.17g}",
        f"frequency.n_omega = {cfg.n_omega}",
        f"source.kind = {cfg.source_kind}",
        f"source.a = {cfg.source_a:.17g}",
        f"source.b = {cfg.source_b:.17g}",
        f"source.order = {cfg.source_order}",
        f"source.mod_freq = {cfg.source_mod_freq:.17g}",
        f"source.amp_re = {cfg.source_amp.real:.17g}",
        f"source.amp_im = {cfg.source_amp.imag:.17g}",
        f"inverse.method = {cfg.method}",
        f"inverse.lambda = {cfg.lam:.17g}",
        f"inverse.k = {cfg.tsvd_k}",
        f"inverse.n_basis = {cfg.n_basis}",
        f"inverse.support_a = {cfg.support_a:.17g}",
        f"inverse.support_b = {cfg.support_b:.17g}",
        f"sweep.K_list = {','.join(f'{v:.17g}' for v in cfg.sweep_K_list)}",
        f"sweep.eps_list = {','.join(f'{v:.17g}' for v in cfg.sweep_eps_list)}",
        f"sweep.n_list = {','.join(str(v) for v in cfg.sweep_n_list)}",
        f"sweep.trials = {cfg.sweep_trials}",
        f"sweep.support_a = {cfg.sweep_support_a:.17g}",
        f"sweep.support_b = {cfg.sweep_support_b:.17g}",
        f"noise.eps = {cfg.eps:.17g}",
        f"noise.seed = {cfg.seed}",
    ]
    if cfg.omega_floor is not None:
        lines.insert(4, f"frequency.omega_floor = {cfg.omega_floor:.17g}")
    return "\n".join(lines) + "\n"


def build_grid(cfg, K=None, n_omega=None):
    K = cfg.K if K is None else K
    n = cfg.n_omega if n_omega is None else n_omega
    floor = cfg.omega_floor if (K == cfg.K and cfg.omega_floor is not None) else K / n
    return FrequencyGrid.uniform(K, n, floor)


def build_source(cfg):
    if cfg.source_kind == "bump":
        return SourceSpec.bump(cfg.source_a, cfg.source_b, cfg.source_amp)
    if cfg.source_kind == "bspline":
        return SourceSpec.bspline(cfg.source_a, cfg.source_b, cfg.source_order,
                                  cfg.source_amp)
    return SourceSpec.modulated_bump(cfg.source_a, cfg.source_b,
                                     cfg.source_mod_freq, cfg.source_amp)


def _random_medium(rng):
    return Medium(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))


def _random_source(rng, lo=-0.9, hi=0.9):
    width = rng.uniform(0.2, 0.5)
    center = rng.uniform(lo + width / 2 + 0.02, hi - width / 2 - 0.02)
    amp = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    kind = rng.integers(0, 3)
    a, b = center - width / 2, center + width / 2
    if kind == 0:
        return SourceSpec.bump(a, b, amp)
    if kind == 1:
        return SourceSpec.bspline(a, b, int(rng.integers(1, 4)), amp)
    return SourceSpec.modulated_bump(a, b, rng.uniform(0.0, 10.0), amp)


def run_verify(cfg):
    """Deterministic identity battery.  Returns (report lines, failures)."""
    seed = np.random.SeedSequence(cfg.seed)
    checks = []

    def record(name, value, threshold):
        checks.append((name, value, threshold))

    # Green's function construction: continuity/jump residuals and the
    # closed form versus the independent linear-system solve.
    rng = np.random.default_rng(seed.spawn(1)[0])
    worst_iface = worst_sys = worst_branch = 0.0
    for _ in range(200):
        med = _random_medium(rng)
        y = rng.uniform(-0.95, 0.95)
        if abs(y) < 1e-3:
            continue
        om = rng.uniform(0.1, 20.0)
        worst_iface = max(worst_iface, interface_residuals(y, med, om).max)
        c_sys = green_coeffs_via_linear_system(y, med, om)
        c_cf = green_coeffs_closed(y, med, om)
        worst_sys = max(worst_sys, max(abs(c_sys.A - c_cf.A), abs(c_sys.B - c_cf.B),
                                       abs(c_sys.C - c_cf.C), abs(c_sys.D - c_cf.D)))
        xs = rng.uniform(-1.0, 1.0, size=8)
        worst_branch = max(worst_branch, float(np.max(np.abs(
            eval_from_coeffs(c_sys, xs, y, med, om) - green_eval(xs, y, med, om)))))
    record("greens interface/jump residuals", worst_iface, 1e-12)
    record("greens system vs closed form", worst_sys, 1e-12)
    record("greens branch agreement", worst_branch, 1e-12)

    # reciprocity g(x, y) = g(y, x)
    rng = np.random.default_rng(seed.spawn(2)[0])
    worst = 0.0
    count = 0
    while count < 1000:
        med = _random_medium(rng)
        om = rng.uniform(0.1, 20.0)
        x, y = rng.uniform(-0.95, 0.95, size=2)
        if min(abs(x), abs(y), abs(x - y)) < 1e-3:
            continue
        worst = max(worst, abs(green_eval(x, y, med, om) - green_eval(y, x, med, om)))
        count += 1
    record("greens reciprocity (1000 pairs)", worst, 1e-12)

    # homogeneous collapse to the free-space kernel
    rng = np.random.default_rng(seed.spawn(3)[0])
    worst = 0.0
    for _ in range(100):
        c = rng.uniform(0.5, 2.0)
        med = Medium(c, c)
        om = rng.uniform(0.1, 20.0)
        x, y = rng.uniform(-0.95, 0.95, size=2)
        if abs(y) < 1e-3:
            continue
        k = c * om
        worst = max(worst, abs(green_eval(x, y, med, om)
                               - 1j / (2 * k) * np.exp(1j * k * abs(x - y))))
    record("greens homogeneous collapse", worst, 1e-13)

    # interface trace identities
    rng = np.random.default_rng(seed.spawn(4)[0])
    worst = 0.0
    for _ in range(100):
        med = _random_medium(rng)
        om = rng.uniform(0.2, 10.0)
        f = _random_source(rng)
        worst = max(worst, interface_traces(f, med, om).max_residual)
    record("interface trace identities (100 draws)", worst, 1e-8)

    # radiation conditions
    rng = np.random.default_rng(seed.spawn(5)[0])
    worst = 0.0
    for _ in range(100):
        med = _random_medium(rng)
        om = rng.uniform(0.2, 10.0)
        f = _random_source(rng)
        worst = max(worst, *check_radiation(f, med, om))
    record("radiation residuals (100 draws)", worst, 1e-10)

    # two-solver agreement at the endpoints
    rng = np.random.default_rng(seed.spawn(6)[0])
    worst = 0.0
    for _ in range(3):
        med = _random_medium(rng)
        om = rng.uniform(1.0, 4.0)
        f = SourceSpec.bump(*sorted(rng.uniform(-0.8, 0.8, size=2)))
        if f.b - f.a < 0.2:
            f = SourceSpec.bump(-0.5, 0.5)
        x, u = fd_oracle(f, med, om, 4096)
        for xi, idx in ((-1.0, 0), (1.0, -1)):
            ref = forward_field(f, med, om, xi)
            worst = max(worst, abs(u[idx] - ref) / abs(ref))
    record("fd oracle endpoint agreement (rel, 4096)", worst, 1e-4)

    # endpoint amplitude inequality, its violation sqrt(lhs) - sqrt(rhs)
    # measured against the amplitude scale sum_k |coeff_k| ||f_side_k||_L1
    # (a one-sided source meets the bound with equality, so a ratio to a
    # small rhs would report quadrature rounding as a violation)
    rng = np.random.default_rng(seed.spawn(7)[0])
    worst = 0.0
    for _ in range(500):
        med = _random_medium(rng)
        om = rng.uniform(0.2, 20.0)
        f = _random_source(rng)
        pair, l1 = split_source(f), {}
        for half in (pair.f1, pair.f2):
            y, w = source_rule(half, 0.0)
            l1[half.side] = float(np.sum(w * np.abs(half(y))))
        lm, rm, lp, rp = endpoint_amplitude_bound(f, med, om)
        for e, lhs, rhs in (("minus", lm, rm), ("plus", lp, rp)):
            scale = sum(abs(c) * l1[side] for end, c, side, _, _ in _endpoint_rows(med)
                        if end == e)
            worst = max(worst, (np.sqrt(lhs) - np.sqrt(rhs)) / scale)
    record("endpoint amplitude bound violation", worst, 1e-12)

    # band-energy consistency: representation route vs forward-solver route
    rng = np.random.default_rng(seed.spawn(8)[0])
    worst = 0.0
    for _ in range(6):
        med = _random_medium(rng)
        f = _random_source(rng)
        s = rng.uniform(2.0, 12.0)
        e1 = data_energy(f, med, s).I.real
        e2 = data_energy_from_sweep(f, med, s).I.real
        worst = max(worst, abs(e1 - e2) / max(e1, 1e-30))
    record("band energy route agreement (rel)", worst, 1e-8)

    lines = []
    failures = []
    width = max(len(name) for name, _, _ in checks)
    for name, value, threshold in checks:
        ok = value <= threshold
        status = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {value:12.3e}  <= {threshold:8.1e}  {status}")
        if not ok:
            failures.append(name)
    return lines, failures


def cmd_verify(cfg, out_path=None):
    lines, failures = run_verify(cfg)
    report = "\n".join(lines)
    print(report)
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(report + "\n")
    if failures:
        print(f"FAILED: {failures[0]}", file=sys.stderr)
        return EXIT_CHECK
    print("all checks passed")
    return EXIT_OK


def _all_finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def cmd_forward(cfg, out_path):
    f = build_source(cfg)
    grid = build_grid(cfg)
    data = boundary_sweep(f, Medium(cfg.c1, cfg.c2), grid)
    if not _all_finite(data.u_minus, data.u_plus):
        print("FAILED: non-finite endpoint data, nothing written", file=sys.stderr)
        return EXIT_CHECK
    write_boundary_csv(data, out_path)
    print(f"wrote {len(grid)} frequencies to {out_path} "
          f"(epsilon = {epsilon_norm(data):.6e})")
    return EXIT_OK


RECON_HEADER = ["x", "re_f_est", "im_f_est", "re_f_true", "im_f_true"]


def write_reconstruction_csv(path, result, f_true=None):
    x = result.f_est.x_grid
    est = result.f_est(x)
    truth = f_true(x) if f_true is not None else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECON_HEADER if truth is not None else RECON_HEADER[:3])
        for i, xi in enumerate(x):
            row = [xi, est[i].real, est[i].imag]
            if truth is not None:
                row += [truth[i].real, truth[i].imag]
            writer.writerow([f"{v:.17g}" for v in row])


def _reconstruct(cfg, data, medium):
    if cfg.method == "homogeneous_ft":
        x_grid = np.linspace(cfg.support_a, cfg.support_b, cfg.n_basis + 2)
        return reconstruct_homogeneous(data, medium, x_grid)
    op = assemble_operator(medium, data.grid, cfg.n_basis,
                           (cfg.support_a, cfg.support_b))
    if cfg.method == "tikhonov":
        lam = cfg.lam
        if cfg.eps > 0:
            lam = morozov_lambda(op, data, cfg.eps)
        return reconstruct_tikhonov(op, data, lam)
    return reconstruct_tsvd(op, data, min(cfg.tsvd_k, cfg.n_basis))


def cmd_reconstruct(cfg, data_path, out_path):
    data = read_boundary_csv(data_path, K=cfg.K)
    if len(data.grid) != cfg.n_omega:
        raise ConfigError(
            f"data grid mismatch: config declares {cfg.n_omega} frequencies, "
            f"file {data_path} has {len(data.grid)}"
        )
    if cfg.eps > 0:
        data = add_noise(data, cfg.eps, cfg.seed)
    medium = Medium(cfg.c1, cfg.c2)
    result = _reconstruct(cfg, data, medium)
    f_true = build_source(cfg)
    err = recon_error(result, f_true)
    result.l2_error = err
    norm = np.sqrt(l2_norm_sq(f_true))
    rel = err / norm if norm > 0 else float("nan")
    if not _all_finite(result.f_est.samples):
        print("FAILED: non-finite reconstruction, nothing written", file=sys.stderr)
        return EXIT_CHECK
    write_reconstruction_csv(out_path, result, f_true)
    print(f"method={result.method} reg={result.reg_param:.6g} "
          f"residual={result.residual:.6e} l2_error={err:.6e} rel={rel:.6e}")
    return EXIT_OK


SWEEP_HEADER = ["K", "eps", "n", "method", "reg_param", "l2_error",
                "runtime_ms", "seed", "error"]


@dataclass
class ExperimentRecord:
    """One stability-sweep cell: band limit, noise level, source order,
    method, chosen regularization, relative L2 error."""

    K: float
    eps: float
    n: int
    method: str
    reg_param: float
    l2_error: float
    runtime_ms: float
    seed: int
    error: str = ""


def _sweep_source(cfg, n, trial):
    """Order-n spline family member, unit L2 norm, deterministic per (n, trial)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, n, trial)))
    lo, hi = cfg.sweep_support_a, cfg.sweep_support_b
    span = hi - lo
    width = rng.uniform(0.35 * span, 0.7 * span)
    center = rng.uniform(lo + width / 2 + 0.01 * span, hi - width / 2 - 0.01 * span)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    f = SourceSpec.bspline(center - width / 2, center + width / 2, n)
    amp = phase / np.sqrt(l2_norm_sq(f))
    return SourceSpec.bspline(f.a, f.b, n, amp)


def run_sweep(cfg):
    """All sweep records in deterministic cell order (K, eps, n, trial).

    Each K assembles its operator once, and each (n, trial) source is
    solved forward once per K; every eps cell reuses that clean data
    (``add_noise`` returns new arrays).  When eps > 0, lambda comes from
    the discrepancy rule, which scans the ladder in SVD coordinates (see
    ``morozov_lambda``).  A cell's ``runtime_ms`` covers its own work:
    the noise, the choice of lambda, the solve and the error; the shared
    forward solve is not counted.  A source whose forward solve raised
    records that error in each of its cells.  Within each K the sources'
    forward solves run beside the operator's SVD (see ``_sweep_band``).
    """
    medium = Medium(cfg.c1, cfg.c2)
    pad = 0.02 * (cfg.sweep_support_b - cfg.sweep_support_a)
    support = (max(-0.99, cfg.sweep_support_a - pad),
               min(0.99, cfg.sweep_support_b + pad))
    records = []
    for iK, K in enumerate(cfg.sweep_K_list):
        records += _sweep_band(cfg, medium, support, iK, K)
    return records


def _sweep_band(cfg, medium, support, iK, K):
    """The records of one band limit K.  Its operator, SVD and clean data
    live only for this call, so one K's worth is held at a time.

    Once the operator is assembled, the sources' clean data and norms are
    computed on a helper thread (``forward._beside``; at once on one CPU)
    while the calling thread factors the operator; the cells then run in
    order on the calling thread.  The SVD stays on the calling thread:
    run on the helper instead, it raised a sweep's peak memory by 4%.
    """
    op = assemble_operator(medium, build_grid(cfg, K=K), cfg.n_basis, support)

    def sources():
        clean = {}
        for n in cfg.sweep_n_list:
            for trial in range(cfg.sweep_trials):
                try:
                    f = _sweep_source(cfg, n, trial)
                    clean[n, trial] = (f, boundary_sweep(f, medium, op.grid),
                                       np.sqrt(l2_norm_sq(f)))
                except Exception as exc:  # recorded in each of its cells below
                    clean[n, trial] = exc
        return clean

    wait_for_sources = _beside(sources)
    try:
        op.svd()
    except np.linalg.LinAlgError:
        pass  # each cell factors again and records the error
    clean = wait_for_sources()
    records = []
    for ieps, eps in enumerate(cfg.sweep_eps_list):
        for n in cfg.sweep_n_list:
            for trial in range(cfg.sweep_trials):
                cell_seq = np.random.SeedSequence((cfg.seed, iK, ieps, n, trial))
                cell_seed = int(cell_seq.generate_state(1)[0])
                t0 = time.perf_counter()
                try:
                    if isinstance(clean[n, trial], Exception):
                        raise clean[n, trial]
                    f, data, norm = clean[n, trial]
                    if eps > 0:
                        data = add_noise(data, eps, cell_seed)
                        lam = morozov_lambda(op, data, eps)
                    else:
                        lam = cfg.lam
                    if cfg.method == "tsvd":
                        result = reconstruct_tsvd(op, data, min(cfg.tsvd_k, cfg.n_basis))
                    else:
                        result = reconstruct_tikhonov(op, data, lam)
                    err = recon_error(result, f) / norm
                    ms = 1e3 * (time.perf_counter() - t0)
                    records.append(ExperimentRecord(K, eps, n, result.method,
                                                    result.reg_param, err, ms,
                                                    cell_seed))
                except Exception as exc:  # record, keep sweeping
                    ms = 1e3 * (time.perf_counter() - t0)
                    records.append(ExperimentRecord(K, eps, n, cfg.method,
                                                    float("nan"), float("nan"),
                                                    ms, cell_seed, str(exc)))
    return records


def write_sweep_csv(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for r in records:
            writer.writerow([
                f"{r.K:.17g}", f"{r.eps:.17g}", str(r.n), r.method,
                f"{r.reg_param:.17g}", f"{r.l2_error:.17g}",
                f"{r.runtime_ms:.3f}", str(r.seed), r.error,
            ])


def read_sweep_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header {header!r}")
        out = []
        for row in reader:
            if not row:
                continue
            out.append(ExperimentRecord(float(row[0]), float(row[1]), int(row[2]),
                                        row[3], float(row[4]), float(row[5]),
                                        float(row[6]), int(row[7]), row[8]))
    return out


def cmd_sweep(cfg, out_path):
    records = run_sweep(cfg)
    write_sweep_csv(out_path, records)
    bad = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} records to {out_path} ({bad} failed cells)")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="helmlayer",
        description="Two-layer 1-D Helmholtz forward/inverse source toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "forward", "reconstruct", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override noise.seed")
        if name in ("forward", "sweep", "reconstruct"):
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--out", default=None)
        if name == "reconstruct":
            p.add_argument("--data", required=True)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        if args.command == "forward":
            return cmd_forward(cfg, args.out)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.data, args.out)
        return cmd_sweep(cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
