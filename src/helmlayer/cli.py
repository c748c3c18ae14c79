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
import sys
import time
from dataclasses import astuple, dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from . import model
from .model import FrequencyGrid, Medium, SourceSpec, l2_norm_sq
from .quadrature import RuleSizeError
from .greens import (_green_runs, eval_from_coeffs, green_coeffs_closed,
                     green_coeffs_via_linear_system, interface_residuals)
from .forward import (_beside, _exact, _read_csv, _write_csv, boundary_sweep,
                      check_radiation_many, fd_oracle, forward_field,
                      interface_traces_many, read_boundary_csv, write_boundary_csv)
from .fourier import (data_energy, data_energy_from_sweep, epsilon_norm,
                      endpoint_amplitude_bound_many)
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


def _split(parse):
    return lambda text: tuple(parse(v) for v in text.split(","))


def _join(fmt):
    return lambda values: ",".join(fmt(v) for v in values)


# a config value's (parse, format) pair
_floats, _ints = _split(float), _split(int)
_FLOAT, _INT, _STR = (float, _exact), (int, str), (str, str)
_FLOATS, _INTS = (_floats, _join(_exact)), (_ints, _join(str))

# a single value's range, (test, wording); a list's range holds for each entry
_POSITIVE = (lambda v: v > 0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
_COUNT = (lambda v: v >= 1, "at least 1")


def _one_of(names):
    return (lambda v: v in names, f"one of {names}")


def _key(default, key, codec, rule):
    """A RunConfig field with its config key, (parse, format) pair and
    single-value range (None: any value; a float must still be finite).
    A complex field takes a pair of keys, for its real and imaginary parts."""
    keys = {key: ""} if isinstance(key, str) else dict(zip(key, (".real", ".imag")))
    return field(default=default, metadata={"keys": keys, "codec": codec, "rule": rule})


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, its fields in canonical key order."""

    c1: float = _key(1.0, "medium.c1", _FLOAT, _POSITIVE)
    c2: float = _key(1.5, "medium.c2", _FLOAT, _POSITIVE)
    K: float = _key(40.0, "frequency.K", _FLOAT, _POSITIVE)
    n_omega: int = _key(400, "frequency.n_omega", _INT, _COUNT)
    # None stands for K / n_omega and is left out of the text
    omega_floor: float | None = _key(None, "frequency.omega_floor", _FLOAT, None)
    source_kind: str = _key("bump", "source.kind", _STR, _one_of(SOURCE_KINDS))
    source_a: float = _key(-0.6, "source.a", _FLOAT, None)
    source_b: float = _key(0.6, "source.b", _FLOAT, None)
    source_order: int = _key(2, "source.order", _INT, None)
    source_mod_freq: float = _key(8.0, "source.mod_freq", _FLOAT, None)
    source_amp: complex = _key(1.0 + 0.0j, ("source.amp_re", "source.amp_im"), _FLOAT, None)
    method: str = _key("tikhonov", "inverse.method", _STR, _one_of(METHODS))
    lam: float = _key(1e-6, "inverse.lambda", _FLOAT, _POSITIVE)
    tsvd_k: int = _key(50, "inverse.k", _INT, _COUNT)
    n_basis: int = _key(201, "inverse.n_basis", _INT, (lambda v: v >= 8, "at least 8"))
    support_a: float = _key(-0.95, "inverse.support_a", _FLOAT, None)
    support_b: float = _key(0.95, "inverse.support_b", _FLOAT, None)
    sweep_K_list: tuple = _key((5.0, 10.0, 20.0, 40.0), "sweep.K_list", _FLOATS, _POSITIVE)
    sweep_eps_list: tuple = _key((0.0, 1e-1, 1e-2, 1e-3), "sweep.eps_list", _FLOATS,
                                 _NON_NEGATIVE)
    sweep_n_list: tuple = _key((1, 2, 3), "sweep.n_list", _INTS, _COUNT)
    sweep_trials: int = _key(10, "sweep.trials", _INT, _COUNT)
    sweep_support_a: float = _key(0.1, "sweep.support_a", _FLOAT, None)
    sweep_support_b: float = _key(0.9, "sweep.support_b", _FLOAT, None)
    eps: float = _key(0.0, "noise.eps", _FLOAT, _NON_NEGATIVE)
    seed: int = _key(7, "noise.seed", _INT, None)

    def __post_init__(self):
        for f in fields(self):
            codec, rule = f.metadata["codec"], f.metadata["rule"]
            for key, part in f.metadata["keys"].items():
                value = attrgetter(f.name + part)(self)
                values = value if isinstance(value, tuple) else (value,)
                if not values:
                    raise ConfigError(f"{key} must not be empty")
                for v in values:
                    if v is None:
                        continue
                    if codec in (_FLOAT, _FLOATS) and not np.isfinite(v):
                        raise ConfigError(f"{key} must be finite, got {v}")
                    if rule is not None and not rule[0](v):
                        raise ConfigError(f"{key} must be {rule[1]}, got {v!r}")
        floor = self.omega_floor
        if floor is not None and not (0 < floor <= self.K):
            raise ConfigError(f"{_KEY['omega_floor']} must lie in (0, {_KEY['K']}]")
        if self.source_kind == "bspline" and self.source_order < 1:
            raise ConfigError(f"{_KEY['source_order']} must be a positive integer "
                              f"when {_KEY['source_kind']} = bspline")
        for a, b in (("source_a", "source_b"), ("support_a", "support_b"),
                     ("sweep_support_a", "sweep_support_b")):
            if not (-1.0 < getattr(self, a) < getattr(self, b) < 1.0):
                raise ConfigError(f"support must satisfy -1 < {_KEY[a]} < {_KEY[b]} < 1")


# Every config key, in canonical text order: section.key -> (RunConfig
# attribute, parse, format), read from the fields; and the key by attribute
_CONFIG_KEYS = {key: (f.name + part, *f.metadata["codec"])
                for f in fields(RunConfig) for key, part in f.metadata["keys"].items()}
_KEY = {attr: key for key, (attr, _, _) in _CONFIG_KEYS.items()}


def parse_config_text(text, origin="<config>"):
    """Parse flat 'section.key = value' lines into a RunConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        attr, parse, _ = _CONFIG_KEYS[key]
        try:
            values[attr] = parse(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key!r}: {val!r}") from exc
    amp = RunConfig.source_amp  # the default, for a part the text leaves out
    values["source_amp"] = complex(values.pop("source_amp.real", amp.real),
                                   values.pop("source_amp.imag", amp.imag))
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
    lines = [f"{key} = {fmt(value)}" for key, (attr, _, fmt) in _CONFIG_KEYS.items()
             if (value := attrgetter(attr)(cfg)) is not None]
    return "\n".join(lines) + "\n"


def build_grid(cfg, K=None):
    K = cfg.K if K is None else K
    floor = cfg.omega_floor if (K == cfg.K and cfg.omega_floor is not None) else K / cfg.n_omega
    return FrequencyGrid.uniform(K, cfg.n_omega, floor)


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


def _random_source(rng):
    width = rng.uniform(0.2, 0.5)
    center = rng.uniform(-0.9 + width / 2 + 0.02, 0.9 - width / 2 - 0.02)
    amp = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    kind = rng.integers(0, 3)
    a, b = center - width / 2, center + width / 2
    if kind == 0:
        return SourceSpec.bump(a, b, amp)
    if kind == 1:
        return SourceSpec.bspline(a, b, int(rng.integers(1, 4)), amp)
    return SourceSpec.modulated_bump(a, b, rng.uniform(0.0, 10.0), amp)


def _random_draws(rng, n, omega_max):
    """n draws (source, medium, omega), each drawn medium first, then
    omega in [0.2, omega_max), then the source."""
    draws = []
    for _ in range(n):
        med = _random_medium(rng)
        om = rng.uniform(0.2, omega_max)
        draws.append((_random_source(rng), med, om))
    return draws


def run_verify(cfg):
    """Deterministic identity battery.  Returns (report lines, failures).

    The battery reads only ``cfg.seed``: every check draws its own media,
    sources and frequencies from it, so configs that differ elsewhere
    (in medium, say) give the same report.
    """
    seed = np.random.SeedSequence(cfg.seed)
    checks = []

    def record(name, value, threshold):
        checks.append((name, value, threshold))

    # Green's function construction: continuity/jump residuals and the
    # closed form versus the independent linear-system solve, whose
    # branches are held to the kernel at 8 points a draw in one call
    rng = np.random.default_rng(seed.spawn(1)[0])
    worst_iface = worst_sys = 0.0
    branches = []
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
        branches.append((med, om, xs, y, eval_from_coeffs(c_sys, xs, y, med, om)))
    media, oms, xs, ys, piecewise = zip(*branches)
    g = _green_runs([np.concatenate(xs)], np.repeat(ys, 8), media, oms, [8] * len(ys), (False,))
    worst_branch = float(np.max(np.abs(np.concatenate(piecewise) - g[0, 0])))
    record("greens interface/jump residuals", worst_iface, 1e-12)
    record("greens system vs closed form", worst_sys, 1e-12)
    record("greens branch agreement", worst_branch, 1e-12)

    # reciprocity g(x, y) = g(y, x), every pair in one kernel call
    rng = np.random.default_rng(seed.spawn(2)[0])
    pairs = []
    while len(pairs) < 1000:
        med = _random_medium(rng)
        om = rng.uniform(0.1, 20.0)
        x, y = rng.uniform(-0.95, 0.95, size=2)
        if min(abs(x), abs(y), abs(x - y)) < 1e-3:
            continue
        pairs.append((med, om, (x, y), (y, x)))
    media, oms, xs, ys = zip(*pairs)
    g = _green_runs([np.ravel(xs)], np.ravel(ys), media, oms, [2] * len(pairs), (False,))[0, 0]
    record("greens reciprocity (1000 pairs)", float(np.max(np.abs(g[0::2] - g[1::2]))), 1e-12)

    # homogeneous collapse to the free-space kernel, in one kernel call
    rng = np.random.default_rng(seed.spawn(3)[0])
    draws = []
    for _ in range(100):
        c = rng.uniform(0.5, 2.0)
        om = rng.uniform(0.1, 20.0)
        x, y = rng.uniform(-0.95, 0.95, size=2)
        if abs(y) >= 1e-3:
            draws.append((Medium(c, c), om, x, y))
    media, oms, xs, ys = zip(*draws)
    g = _green_runs([xs], ys, media, oms, [1] * len(draws), (False,))[0, 0]
    k = np.multiply([med.c1 for med in media], oms)
    free = 1j / (2 * k) * np.exp(1j * k * np.abs(np.subtract(xs, ys)))
    record("greens homogeneous collapse", float(np.max(np.abs(g - free))), 1e-13)

    # interface trace identities
    rng = np.random.default_rng(seed.spawn(4)[0])
    worst = max(rep.max_residual for rep in interface_traces_many(_random_draws(rng, 100, 10.0)))
    record("interface trace identities (100 draws)", worst, 1e-8)

    # radiation conditions
    rng = np.random.default_rng(seed.spawn(5)[0])
    worst = float(np.max(check_radiation_many(_random_draws(rng, 100, 10.0))))
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
    lm, rm, lp, rp, sm, sp = endpoint_amplitude_bound_many(_random_draws(rng, 500, 20.0)).T
    violation = np.concatenate([(np.sqrt(lm) - np.sqrt(rm)) / sm,
                                (np.sqrt(lp) - np.sqrt(rp)) / sp])
    record("endpoint amplitude bound violation", max(0.0, float(np.max(violation))), 1e-12)

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
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        epsilon = epsilon_norm(data)
    if not _all_finite(data.u_minus, data.u_plus, epsilon):
        print("FAILED: non-finite endpoint data or data norm, nothing written", file=sys.stderr)
        return EXIT_CHECK
    write_boundary_csv(data, out_path)
    print(f"wrote {len(grid)} frequencies to {out_path} (epsilon = {epsilon:.6e})")
    return EXIT_OK


RECON_HEADER = ["x", "re_f_est", "im_f_est", "re_f_true", "im_f_true"]


def write_reconstruction_csv(path, result, f_true):
    x = result.f_est.x_grid
    est = result.f_est(x)
    truth = f_true(x)
    _write_csv(path, RECON_HEADER, zip(x, est.real, est.imag, truth.real, truth.imag))


def _solve(cfg, op, data, eps):
    """TSVD at rank k, capped at the operator's singular value count
    min(n_basis, 2 n_omega); or else Tikhonov at the discrepancy rule's
    lambda when eps > 0 and at ``cfg.lam`` otherwise.

    A stage whose arithmetic leaves the floating-point range (a Python
    float overflow, or a numpy one where an errstate raises it) raises
    an ArithmeticError that names the stage and the medium keys, whose
    speeds set the scale of the operator and the data."""
    stage = "TSVD solve"
    try:
        if cfg.method == "tsvd":
            return reconstruct_tsvd(op, data, min(cfg.tsvd_k, *op.matrix.shape))
        stage = "Morozov solve"
        lam = morozov_lambda(op, data, eps) if eps > 0 else cfg.lam
        stage = "Tikhonov solve"
        return reconstruct_tikhonov(op, data, lam)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{stage} out of range ({exc}): its scale is set by "
                              f"{_KEY['c1']} = {cfg.c1:g} and {_KEY['c2']} = {cfg.c2:g}") from None


def _reconstruct(cfg, data, medium):
    if cfg.method == "homogeneous_ft":
        x_grid = np.linspace(cfg.support_a, cfg.support_b, cfg.n_basis + 2)
        return reconstruct_homogeneous(data, medium, x_grid)
    op = assemble_operator(medium, data.grid, cfg.n_basis,
                           (cfg.support_a, cfg.support_b))
    return _solve(cfg, op, data, cfg.eps)


def cmd_reconstruct(cfg, data_path, out_path):
    data = read_boundary_csv(data_path, K=cfg.K)
    if len(data.grid) != cfg.n_omega:
        raise ConfigError(
            f"data grid mismatch: {_KEY['n_omega']} = {cfg.n_omega}, "
            f"but file {data_path} has {len(data.grid)} frequencies"
        )
    if cfg.eps > 0:
        data = add_noise(data, cfg.eps, cfg.seed)
    f_true = build_source(cfg)
    # an out-of-range run may overflow to inf or nan, or raise: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = _reconstruct(cfg, data, Medium(cfg.c1, cfg.c2))
        except ArithmeticError as exc:
            print(f"FAILED: {exc}; nothing written", file=sys.stderr)
            return EXIT_CHECK
        err = recon_error(result, f_true)
        norm = np.sqrt(l2_norm_sq(f_true))
        rel = err / norm if norm > 0 else float("nan")
    result.l2_error = err
    # rel is nan, and no failure, when the truth has zero norm
    if not _all_finite(result.f_est.samples, result.reg_param, result.residual, err,
                       rel if norm > 0 else 0.0):
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
    (``add_noise`` returns new arrays).  When eps > 0, a Tikhonov cell's
    lambda comes from the discrepancy rule, which scans the ladder in SVD
    coordinates (see ``morozov_lambda``); a TSVD cell runs no scan.  A
    cell's ``runtime_ms`` covers its own work: the noise, the choice of
    lambda, the solve and the error; the shared forward solve is not
    counted.  A source whose forward solve raised records that error in
    each of its cells.  Within each K the sources' forward solves run
    beside the operator's SVD (see ``_sweep_band``).
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
    computed on a thread made for them (``forward._beside``; at once on
    one CPU) while the calling thread factors the operator; their
    endpoint maps run inline there, so this stage takes two threads.
    The thread is joined before the cells run in order on the calling
    thread.  The SVD stays on the calling thread: run on the
    helper instead, it raised a sweep's peak memory by 4%.
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
                    noisy = add_noise(data, eps, cell_seed)
                    # out of range, a solve raises: its cell records the error
                    with np.errstate(over="raise", invalid="raise", divide="raise"):
                        result = _solve(cfg, op, noisy, eps)
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
    _write_csv(path, SWEEP_HEADER, (astuple(r) for r in records))


def read_sweep_csv(path):
    types = (float, float, int, str, float, float, float, int, str)
    return [ExperimentRecord(*row) for row in _read_csv(path, SWEEP_HEADER, types)]


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
        p.add_argument("--seed", type=int, default=None, help=f"override {_KEY['seed']}")
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
    except RuleSizeError as exc:
        print(f"invalid input: {exc}; the rate is the larger of {_KEY['c1']} and "
              f"{_KEY['c2']} times the band limit ({_KEY['K']}, or each of "
              f"{_KEY['sweep_K_list']} in a sweep)", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
