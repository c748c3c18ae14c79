import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import helmlayer.cli as cli
from helmlayer import forward
from helmlayer.cli import (ConfigError, RunConfig, build_grid, build_source,
                           cmd_forward, cmd_reconstruct, cmd_sweep, cmd_verify,
                           main, parse_config_text, read_sweep_csv, run_sweep,
                           run_verify, serialize_config)
from helmlayer.forward import BoundaryData, read_boundary_csv
from helmlayer.model import SourceSpec, l2_norm_sq


def test_empty_config_gives_defaults():
    assert parse_config_text("") == RunConfig()
    assert parse_config_text("# only a comment\n\n") == RunConfig()


def test_config_validation_names_offender():
    with pytest.raises(ConfigError, match="c2"):
        parse_config_text("medium.c2 = -1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("medium.c3 = 1\n")
    with pytest.raises(ConfigError, match="2"):
        parse_config_text("medium.c1 = 1\nfrequency.K = oops\n")
    with pytest.raises(ConfigError, match="support"):
        parse_config_text("source.a = 0.9\nsource.b = 0.2\n")


def test_config_roundtrip():
    text = (
        "medium.c1 = 0.8\nmedium.c2 = 2.2\nfrequency.K = 25\n"
        "frequency.n_omega = 120\nsource.kind = bspline\nsource.a = 0.1\n"
        "source.b = 0.7\nsource.order = 3\nsource.amp_re = 0.5\n"
        "source.amp_im = -1.5\ninverse.method = tsvd\ninverse.k = 30\n"
        "sweep.K_list = 4,8\nsweep.eps_list = 0,1e-2\nsweep.n_list = 1,2\n"
        "noise.eps = 0.01\nnoise.seed = 3\n"
    )
    cfg = parse_config_text(text)
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg


def test_build_source_kinds():
    cfg = parse_config_text("source.kind = modulated_bump\nsource.mod_freq = 4\n")
    f = build_source(cfg)
    assert f.kind == "modulated_bump" and f.mod_freq == 4.0
    grid = build_grid(cfg)
    assert len(grid) == cfg.n_omega and grid.K == cfg.K


def _break_radiation(monkeypatch):
    monkeypatch.setattr(cli, "check_radiation", lambda f, med, om: (0.0, 1.0))


def test_verify_default_passes_and_fault_hook_fails(monkeypatch):
    cfg = RunConfig()
    lines, failures = run_verify(cfg)
    assert failures == []
    assert len(lines) >= 8

    _break_radiation(monkeypatch)
    _, failures = run_verify(cfg)
    assert any("radiation" in name for name in failures)


def test_verify_homogeneous_config_passes():
    cfg = parse_config_text("medium.c1 = 1.0\nmedium.c2 = 1.0\n")
    _, failures = run_verify(cfg)
    assert failures == []


def test_cmd_verify_exit_codes(tmp_path, capsys, monkeypatch):
    assert cmd_verify(RunConfig(), tmp_path / "report.txt") == 0
    assert "PASS" in (tmp_path / "report.txt").read_text()
    capsys.readouterr()
    _break_radiation(monkeypatch)
    assert cmd_verify(RunConfig()) == 3


@pytest.mark.parametrize("seed", ["13", "16"])
def test_verify_amplitude_bound_at_equality_passes(seed, capsys):
    # one-sided draws meet the amplitude bound with equality
    assert main(["verify", "--seed", seed]) == 0


def test_verify_detects_tightened_amplitude_bound(monkeypatch, capsys):
    real = cli.endpoint_amplitude_bound

    def tightened(*args, **kw):
        lm, rm, lp, rp = real(*args, **kw)
        return lm, rm * (1.0 - 1e-6), lp, rp * (1.0 - 1e-6)

    monkeypatch.setattr(cli, "endpoint_amplitude_bound", tightened)
    assert main(["verify"]) == 3
    assert "endpoint amplitude bound" in capsys.readouterr().err


_NONFINITE_KEYS = sorted(cli._FLOAT_KEYS) + ["sweep.K_list", "sweep.eps_list",
                                             "source.amp_re", "source.amp_im"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _NONFINITE_KEYS)
def test_config_rejects_non_finite(key, value, tmp_path, capsys):
    with pytest.raises(ConfigError, match="finite"):
        parse_config_text(f"{key} = {value}\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{key} = {value}\n")
    assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "d.csv")]) == 2
    assert not (tmp_path / "d.csv").exists()


def test_cmd_forward_zero_source_and_determinism(tmp_path, capsys):
    cfg = parse_config_text(
        "source.amp_re = 0\nfrequency.n_omega = 16\nfrequency.K = 5\n"
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cmd_forward(cfg, p1) == 0
    assert cmd_forward(cfg, p2) == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = read_boundary_csv(p1)
    assert np.all(data.u_minus == 0.0) and np.all(data.u_plus == 0.0)


def test_forward_reconstruct_roundtrip_homogeneous(tmp_path, capsys):
    cfg_text = (
        "medium.c1 = 1.0\nmedium.c2 = 1.0\nfrequency.K = 40\n"
        "frequency.n_omega = 300\nsource.a = -0.5\nsource.b = 0.5\n"
        "inverse.method = homogeneous_ft\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    data_path = tmp_path / "data.csv"
    rec_path = tmp_path / "rec.csv"
    assert main(["forward", "--config", str(cfg_path), "--out", str(data_path)]) == 0
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--data", str(data_path), "--out", str(rec_path)]) == 0
    rows = rec_path.read_text().splitlines()
    assert rows[0] == "x,re_f_est,im_f_est,re_f_true,im_f_true"
    arr = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    est = arr[:, 1] + 1j * arr[:, 2]
    truth = arr[:, 3] + 1j * arr[:, 4]
    x = arr[:, 0]
    rel = np.sqrt(np.trapezoid(np.abs(est - truth) ** 2, x)
                  / np.trapezoid(np.abs(truth) ** 2, x))
    assert rel <= 5e-2


def test_reconstruct_grid_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("frequency.n_omega = 32\nfrequency.K = 5\n")
    data_path = tmp_path / "data.csv"
    assert main(["forward", "--config", str(cfg_path), "--out", str(data_path)]) == 0
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("frequency.n_omega = 64\nfrequency.K = 5\n")
    code = main(["reconstruct", "--config", str(bad_cfg),
                 "--data", str(data_path), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "64" in err and "32" in err


def test_reconstruct_noise_monotone_in_eps(tmp_path, capsys):
    cfg_text = (
        "frequency.K = 30\nfrequency.n_omega = 120\nsource.a = 0.15\n"
        "source.b = 0.8\ninverse.n_basis = 81\n"
    )
    data_path = tmp_path / "data.csv"
    cfg = parse_config_text(cfg_text)
    assert cmd_forward(cfg, data_path) == 0
    medians = []
    for eps in (1e-1, 1e-3):
        errs = []
        for seed in range(10):
            cfg_eps = parse_config_text(cfg_text + f"noise.eps = {eps}\nnoise.seed = {seed}\n")
            assert cmd_reconstruct(cfg_eps, data_path, tmp_path / "r.csv") == 0
            out = capsys.readouterr().out
            errs.append(float(out.split("l2_error=")[1].split()[0]))
        medians.append(np.median(errs))
    assert medians[0] > medians[1]


def test_tsvd_matches_tikhonov_on_clean_data(tmp_path, capsys):
    # band wide enough that the operator is numerically full rank
    base = (
        "frequency.K = 60\nfrequency.n_omega = 200\nsource.a = -0.4\n"
        "source.b = 0.5\ninverse.n_basis = 41\ninverse.support_a = -0.8\n"
        "inverse.support_b = 0.8\n"
    )
    data_path = tmp_path / "data.csv"
    cmd_forward(parse_config_text(base), data_path)
    outs = {}
    for method, extra in (("tikhonov", "inverse.lambda = 1e-9\n"),
                          ("tsvd", "inverse.k = 41\n")):
        cfg = parse_config_text(base + f"inverse.method = {method}\n" + extra)
        cmd_reconstruct(cfg, data_path, tmp_path / f"{method}.csv")
        capsys.readouterr()
        rows = (tmp_path / f"{method}.csv").read_text().splitlines()[1:]
        arr = np.array([[float(v) for v in r.split(",")] for r in rows])
        outs[method] = arr[:, 1] + 1j * arr[:, 2]
    scale = np.max(np.abs(outs["tikhonov"]))
    assert np.max(np.abs(outs["tikhonov"] - outs["tsvd"])) / scale <= 1e-3


def test_sweep_complete_and_deterministic(tmp_path, capsys):
    cfg = parse_config_text(
        "frequency.n_omega = 60\nsweep.K_list = 4,8\nsweep.eps_list = 0,1e-2\n"
        "sweep.n_list = 1,2\nsweep.trials = 2\ninverse.n_basis = 61\n"
    )
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cmd_sweep(cfg, p1) == 0
    assert cmd_sweep(cfg, p2) == 0

    def strip_runtime(path):
        rows = [r.split(",") for r in path.read_text().splitlines()]
        return [r[:6] + r[7:] for r in rows]

    # deterministic up to the wall-clock runtime column
    assert strip_runtime(p1) == strip_runtime(p2)
    records = read_sweep_csv(p1)
    assert len(records) == 2 * 2 * 2 * 2
    assert all(r.error == "" for r in records)
    assert all(r.l2_error >= 0 for r in records)


@pytest.mark.parametrize("cores", [1, 2])
def test_sweep_records_cell_failures(tmp_path, monkeypatch, capsys, cores):
    # with two CPUs the sources' data are computed on a helper thread
    monkeypatch.setattr(forward, "_cores", lambda: cores)
    cfg = parse_config_text(
        "frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0\n"
        "sweep.n_list = 1\nsweep.trials = 2\ninverse.n_basis = 31\n"
    )
    real = cli.boundary_sweep

    def flaky(f, medium, grid, **kw):
        if grid.K == 8.0:
            raise RuntimeError("injected failure")
        return real(f, medium, grid, **kw)

    monkeypatch.setattr(cli, "boundary_sweep", flaky)
    path = tmp_path / "s.csv"
    assert cmd_sweep(cfg, path) == 0
    records = read_sweep_csv(path)
    assert len(records) == 4
    good = [r for r in records if r.K == 4.0]
    bad = [r for r in records if r.K == 8.0]
    assert all(r.error == "" for r in good)
    assert all("injected failure" in r.error for r in bad)
    assert all(np.isnan(r.l2_error) for r in bad)


@pytest.mark.parametrize("cores", [1, 2])
def test_sweep_failed_source_fails_only_its_cells(monkeypatch, cores):
    monkeypatch.setattr(forward, "_cores", lambda: cores)
    cfg = parse_config_text(
        "frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0,1e-2\n"
        "sweep.n_list = 1,2,3\nsweep.trials = 2\ninverse.n_basis = 31\n"
    )
    clean = run_sweep(cfg)
    real = cli.boundary_sweep
    calls, on_caller = [], set()

    def flaky(f, medium, grid, **kw):
        calls.append(grid.K)
        on_caller.add(threading.current_thread() is threading.main_thread())
        if f.order == 2:
            raise RuntimeError("injected failure")
        return real(f, medium, grid, **kw)

    monkeypatch.setattr(cli, "boundary_sweep", flaky)
    records = run_sweep(cfg)
    assert len(records) == len(clean) == 2 * 2 * 3 * 2
    # one forward solve per (n, trial) for each K, shared by every eps
    assert calls == [4.0] * 6 + [8.0] * 6
    # on one CPU the sources run on the calling thread, on two on a helper
    assert on_caller == {cores == 1}
    for r, c in zip(records, clean):
        assert (r.K, r.eps, r.n, r.seed) == (c.K, c.eps, c.n, c.seed)
        if r.n == 2:
            assert "injected failure" in r.error
            assert np.isnan(r.l2_error) and np.isnan(r.reg_param)
        else:
            assert r.error == ""
            assert (r.reg_param, r.l2_error) == (c.reg_param, c.l2_error)


def test_main_exit_codes(tmp_path, capsys):
    assert main(["verify", "--config", "/nonexistent/helm.cfg"]) == 4
    bad = tmp_path / "bad.cfg"
    bad.write_text("medium.c1 = -2\n")
    assert main(["forward", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    with pytest.raises(SystemExit):
        main(["unknown-command"])


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "frequency.K = 20\nfrequency.n_omega = 80\nnoise.eps = 1e-2\n"
        "inverse.n_basis = 41\nsource.a = -0.4\nsource.b = 0.5\n"
    )
    data_path = tmp_path / "d.csv"
    main(["forward", "--config", str(cfg_path), "--out", str(data_path)])
    outs = []
    for seed in ("1", "2", "1"):
        main(["reconstruct", "--config", str(cfg_path), "--seed", seed,
              "--data", str(data_path), "--out", str(tmp_path / "r.csv")])
        outs.append(capsys.readouterr().out.strip().splitlines()[-1])
    assert outs[0] == outs[2]
    assert outs[0] != outs[1]


def test_zero_source_norm_guard():
    cfg = parse_config_text("source.amp_re = 0\n")
    f = build_source(cfg)
    assert l2_norm_sq(f) == 0.0


def _forward_csv(tmp_path, extra=""):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("frequency.n_omega = 32\nfrequency.K = 5\n" + extra)
    data_path = tmp_path / "data.csv"
    assert main(["forward", "--config", str(cfg_path), "--out", str(data_path)]) == 0
    return cfg_path, data_path


@pytest.mark.parametrize("method", ["tikhonov", "tsvd"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_reconstruct_rejects_non_finite_data(method, value, tmp_path, capsys):
    cfg_path, data_path = _forward_csv(tmp_path, f"inverse.method = {method}\n")
    lines = data_path.read_text().splitlines()
    row = lines[5].split(",")
    row[1] = value  # re_u_minus
    lines[5] = ",".join(row)
    data_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_boundary_csv(data_path)
    out = tmp_path / "rec.csv"
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--data", str(data_path), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_forward_non_finite_output_writes_nothing(tmp_path, monkeypatch, capsys):
    real_sweep = cli.boundary_sweep

    def poisoned(*args, **kwargs):
        data = real_sweep(*args, **kwargs)
        um = data.u_minus.copy()
        um[3] = np.nan
        return BoundaryData(data.grid, um, data.u_plus)

    monkeypatch.setattr(cli, "boundary_sweep", poisoned)
    out = tmp_path / "d.csv"
    assert cmd_forward(parse_config_text("frequency.n_omega = 16\nfrequency.K = 5\n"),
                       out) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_non_finite_output_writes_nothing(tmp_path, monkeypatch, capsys):
    cfg_path, data_path = _forward_csv(tmp_path)
    real = cli._reconstruct

    def poisoned(*args):
        result = real(*args)
        samples = result.f_est.samples.copy()
        samples[4] = np.nan
        return replace(result, f_est=SourceSpec.from_grid(result.f_est.x_grid, samples))

    monkeypatch.setattr(cli, "_reconstruct", poisoned)
    out = tmp_path / "rec.csv"
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--data", str(data_path), "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_requests_run_without_scipy(tmp_path):
    # scipy is loaded only by the finite-difference oracle, so importing
    # the package and serving forward and reconstruct requests on a
    # B-spline source leave it unloaded
    cfg = tmp_path / "run.cfg"
    cfg.write_text("source.kind = bspline\nsource.order = 3\nfrequency.K = 10\n"
                   "frequency.n_omega = 60\ninverse.n_basis = 41\n")
    script = f"""
import sys
import helmlayer
from helmlayer import cli
assert cli.main(["forward", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "d.csv")!r}]) == 0
assert cli.main(["reconstruct", "--config", {str(cfg)!r}, "--data", {str(tmp_path / "d.csv")!r},
                 "--out", {str(tmp_path / "r.csv")!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def _run_child(script, **env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, **env), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_starts_no_thread():
    # the endpoint map makes its helper pool on first use, not at import,
    # and a sweep on one CPU never uses it
    script = """
import sys, threading
import helmlayer
from helmlayer import cli, forward
print(threading.active_count(), "concurrent.futures" in sys.modules, end=" ")
forward._cores = lambda: 1
cli.run_sweep(cli.parse_config_text("frequency.n_omega = 40\\nsweep.K_list = 4,8\\n"
                                    "sweep.eps_list = 0,1e-2\\nsweep.n_list = 1,2\\n"
                                    "sweep.trials = 2\\ninverse.n_basis = 31\\n"))
print(threading.active_count(), forward._pool is None)
"""
    assert _run_child(script) == "1 False 1 True"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two CPUs")
def test_sweep_on_one_cpu_matches_all_cpus(tmp_path):
    # one CPU means one worker in the endpoint map; the BLAS thread count
    # is held at 1 on both sides, so only the worker count differs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep.K_list = 5,40\nsweep.eps_list = 0,1e-2\nsweep.n_list = 1,3\n"
                   "sweep.trials = 2\n")
    rows = {}
    for name, pin in (("all", ""), ("one", "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})")):
        out = tmp_path / f"{name}.csv"
        script = f"""
import os
{pin}
from helmlayer import cli, forward
assert cli.main(["sweep", "--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
print(forward._cores())
"""
        cores = int(_run_child(script, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                               MKL_NUM_THREADS="1"))
        assert (cores == 1) == (name == "one")
        lines = out.read_text().splitlines()
        col = lines[0].split(",").index("runtime_ms")
        rows[name] = [line.split(",")[:col] + line.split(",")[col + 1:] for line in lines]
    assert len(rows["all"]) == 1 + 2 * 2 * 2 * 2
    assert rows["one"] == rows["all"]
