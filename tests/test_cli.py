import inspect
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import helmlayer
import helmlayer.cli as cli
from helmlayer import forward
from helmlayer.cli import (ConfigError, ExperimentRecord, RunConfig,
                           build_grid, build_source, cmd_forward, cmd_reconstruct,
                           cmd_sweep, cmd_verify, main, parse_config_text,
                           read_sweep_csv, run_sweep, run_verify, serialize_config,
                           write_sweep_csv)
from helmlayer.forward import BoundaryData, read_boundary_csv
from helmlayer.fourier import epsilon_norm
from helmlayer.inverse import ConditioningWarning
from helmlayer.model import Medium, SourceSpec, l2_norm_sq


def test_empty_config_gives_defaults():
    assert parse_config_text("") == RunConfig()
    assert parse_config_text("# only a comment\n\n") == RunConfig()


def test_config_accepts_numpy_scalars():
    # values computed with numpy pass the same checks as Python numbers
    cfg = RunConfig(source_a=np.float64(-0.5), n_omega=np.int64(30),
                    sweep_K_list=(np.float64(2.0),), sweep_n_list=(np.int64(2),))
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_config_validation_names_offender():
    with pytest.raises(ConfigError, match="c2"):
        parse_config_text("medium.c2 = -1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("medium.c3 = 1\n")
    with pytest.raises(ConfigError, match="<config>:2: expected 'key = value'"):
        parse_config_text("medium.c1 = 1\nmedium.c2 1.5\n")
    with pytest.raises(ConfigError, match="2"):
        parse_config_text("medium.c1 = 1\nfrequency.K = oops\n")
    with pytest.raises(ConfigError, match="support"):
        parse_config_text("source.a = 0.9\nsource.b = 0.2\n")
    # one out-of-range value per ranged key, and each support pair reversed:
    # the message names the key, or both keys of a pair
    for text, keys in [
        ("medium.c1 = 0", ["medium.c1"]),
        ("medium.c2 = -1", ["medium.c2"]),
        ("frequency.K = 0", ["frequency.K"]),
        ("frequency.n_omega = 0", ["frequency.n_omega"]),
        ("frequency.omega_floor = 50", ["frequency.omega_floor", "frequency.K"]),
        ("source.kind = grid", ["source.kind"]),
        ("source.kind = bspline\nsource.order = 0", ["source.order", "source.kind"]),
        ("inverse.method = lsqr", ["inverse.method"]),
        ("inverse.lambda = 0", ["inverse.lambda"]),
        ("inverse.k = 0", ["inverse.k"]),
        ("inverse.n_basis = 7", ["inverse.n_basis"]),
        ("noise.eps = -1e-3", ["noise.eps"]),
        ("noise.seed = -1", ["noise.seed"]),
        ("sweep.K_list = 5,0", ["sweep.K_list"]),
        ("sweep.eps_list = 0,-1", ["sweep.eps_list"]),
        ("sweep.n_list = 1,0", ["sweep.n_list"]),
        ("sweep.trials = 0", ["sweep.trials"]),
        ("source.a = 0.9\nsource.b = 0.2", ["source.a", "source.b"]),
        ("inverse.support_a = 0.5\ninverse.support_b = -0.5",
         ["inverse.support_a", "inverse.support_b"]),
        ("sweep.support_a = 0.9\nsweep.support_b = 0.1",
         ["sweep.support_a", "sweep.support_b"]),
    ]:
        with pytest.raises(ConfigError) as refused:
            parse_config_text(text + "\n")
        assert all(key in str(refused.value) for key in keys), (text, str(refused.value))


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


_CANONICAL_TEXT = """\
medium.c1 = 0.80000000000000004
medium.c2 = 1.5
frequency.K = 25
frequency.n_omega = 120
frequency.omega_floor = 0.5
source.kind = modulated_bump
source.a = -0.59999999999999998
source.b = 0.59999999999999998
source.order = 2
source.mod_freq = 8
source.amp_re = 0.5
source.amp_im = -1.5
inverse.method = tsvd
inverse.lambda = 9.9999999999999995e-07
inverse.k = 30
inverse.n_basis = 201
inverse.support_a = -0.94999999999999996
inverse.support_b = 0.94999999999999996
sweep.K_list = 4,8.5,16
sweep.eps_list = 0,0.01
sweep.n_list = 1,3
sweep.trials = 10
sweep.support_a = 0.10000000000000001
sweep.support_b = 0.90000000000000002
noise.eps = 0.10000000000000001
noise.seed = 3
"""


def test_serialize_config_canonical_text():
    # key order, number formats and the omega_floor line are pinned
    cfg = RunConfig(c1=0.8, K=25.0, n_omega=120, omega_floor=0.5,
                    source_kind="modulated_bump", source_amp_re=0.5, source_amp_im=-1.5,
                    method="tsvd", tsvd_k=30, sweep_K_list=(4.0, 8.5, 16.0),
                    sweep_eps_list=(0.0, 0.01), sweep_n_list=(1, 3), eps=0.1, seed=3)
    assert serialize_config(cfg) == _CANONICAL_TEXT
    assert parse_config_text(_CANONICAL_TEXT) == cfg
    unfloored = serialize_config(replace(cfg, omega_floor=None))
    assert unfloored == _CANONICAL_TEXT.replace("frequency.omega_floor = 0.5\n", "")


def test_build_source_kinds():
    cfg = parse_config_text("source.kind = modulated_bump\nsource.mod_freq = 4\n")
    f = build_source(cfg)
    assert f.kind == "modulated_bump" and f.mod_freq == 4.0
    grid = build_grid(cfg)
    assert len(grid) == cfg.n_omega and grid.K == cfg.K


def _break_radiation(monkeypatch):
    monkeypatch.setattr(cli, "check_radiation_many", lambda draws: np.tile([0.0, 1.0], (len(draws), 1)))


def test_verify_default_passes_and_fault_hook_fails(monkeypatch):
    cfg = RunConfig()
    lines, failures = run_verify(cfg)
    assert failures == []
    assert len(lines) >= 8

    _break_radiation(monkeypatch)
    _, failures = run_verify(cfg)
    assert any("radiation" in name for name in failures)


def test_verify_homogeneous_config_passes():
    # the battery draws its own media from cfg.seed, so a config that
    # differs only in medium reruns the default battery line for line
    cfg = parse_config_text("medium.c1 = 1.0\nmedium.c2 = 1.0\n")
    lines, failures = run_verify(cfg)
    assert failures == []
    assert (cfg.c1, cfg.c2) != (RunConfig().c1, RunConfig().c2)
    assert lines == run_verify(RunConfig())[0]


def test_cmd_verify_exit_codes(tmp_path, capsys, monkeypatch):
    assert cmd_verify(RunConfig(), tmp_path / "report.txt") == 0
    assert "PASS" in (tmp_path / "report.txt").read_text()
    capsys.readouterr()
    _break_radiation(monkeypatch)
    assert cmd_verify(RunConfig(), None) == 3


@pytest.mark.parametrize("seed", ["13", "16"])
def test_verify_amplitude_bound_at_equality_passes(seed, capsys):
    # one-sided draws meet the amplitude bound with equality
    assert main(["verify", "--seed", seed]) == 0


def test_verify_detects_tightened_amplitude_bound(monkeypatch, capsys):
    real = cli.endpoint_amplitude_bound_many

    def tightened(draws):
        rows = real(draws)
        rows[:, [1, 3]] *= 1.0 - 1e-6  # rhs_minus, rhs_plus
        return rows

    monkeypatch.setattr(cli, "endpoint_amplitude_bound_many", tightened)
    assert main(["verify"]) == 3
    assert "endpoint amplitude bound" in capsys.readouterr().err


def test_verify_detects_a_broken_trace_identity(monkeypatch, capsys):
    real = cli.interface_traces_many

    def shifted(draws):
        reps = real(draws)
        # one draw's predicted u(0) off by 1e-7, ten times the threshold
        bad = reps[len(reps) // 2]
        u0_pred = bad.u0_predicted + 1e-7
        residuals = bad.residuals.copy()
        residuals[0] = abs(bad.u0 - u0_pred)
        reps[len(reps) // 2] = replace(bad, u0_predicted=u0_pred, residuals=residuals)
        return reps

    monkeypatch.setattr(cli, "interface_traces_many", shifted)
    assert main(["verify"]) == 3
    assert "interface trace identities" in capsys.readouterr().err


def test_verify_detects_broken_radiation(monkeypatch, capsys):
    _break_radiation(monkeypatch)
    assert main(["verify"]) == 3
    assert "radiation residuals" in capsys.readouterr().err


_NONFINITE_KEYS = [key for key, (_, parse, _) in cli._CONFIG_KEYS.items()
                   if parse in (float, cli._floats)]


def test_non_finite_keys_are_the_float_valued_keys():
    assert sorted(_NONFINITE_KEYS) == sorted([
        "medium.c1", "medium.c2", "frequency.K", "frequency.omega_floor", "source.a",
        "source.b", "source.mod_freq", "source.amp_re", "source.amp_im", "inverse.lambda",
        "inverse.support_a", "inverse.support_b", "noise.eps", "sweep.support_a",
        "sweep.support_b", "sweep.K_list", "sweep.eps_list"])


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
    data = read_boundary_csv(p1, cfg.K)
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
    real = cli.endpoint_data

    def flaky(f, medium, grid, **kw):
        if grid.K == 8.0:
            raise RuntimeError("injected failure")
        return real(f, medium, grid, **kw)

    monkeypatch.setattr(cli, "endpoint_data", flaky)
    path = tmp_path / "s.csv"
    assert cmd_sweep(cfg, path) == 0
    records = read_sweep_csv(path)
    assert len(records) == 4
    good = [r for r in records if r.K == 4.0]
    bad = [r for r in records if r.K == 8.0]
    assert all(r.error == "" for r in good)
    assert all("injected failure" in r.error for r in bad)
    assert all(np.isnan(r.l2_error) for r in bad)

    # a factorization that fails fails each cell of its band, not the sweep
    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "endpoint_data", real)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert cmd_sweep(cfg, path) == 0
    assert [r.error for r in read_sweep_csv(path)] == ["SVD did not converge"] * 4


@pytest.mark.parametrize("cores", [1, 2])
def test_sweep_failed_source_fails_only_its_cells(monkeypatch, cores):
    monkeypatch.setattr(forward, "_cores", lambda: cores)
    cfg = parse_config_text(
        "frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0,1e-2\n"
        "sweep.n_list = 1,2,3\nsweep.trials = 2\ninverse.n_basis = 31\n"
    )
    clean = run_sweep(cfg)
    real = cli.endpoint_data
    calls, on_caller = [], set()

    def flaky(f, medium, grid, **kw):
        calls.append(grid.K)
        on_caller.add(threading.current_thread() is threading.main_thread())
        if f.order == 2:
            raise RuntimeError("injected failure")
        return real(f, medium, grid, **kw)

    monkeypatch.setattr(cli, "endpoint_data", flaky)
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


def test_sweep_non_finite_data_fail_only_their_cells(monkeypatch):
    # one source's data hold an inf in one band: its cells fail, and their
    # columns are zeroed before the band's QR, so that every other cell,
    # in that band too, keeps the bits of the clean run
    cfg = parse_config_text(
        "frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0,1e-2\n"
        "sweep.n_list = 1,2,3\nsweep.trials = 2\ninverse.n_basis = 31\n"
    )
    clean = run_sweep(cfg)
    real, (bad, _) = cli.endpoint_data, cli._sweep_source(cfg, 2, 1)

    def poisoned(f, medium, grid, **kw):
        data = real(f, medium, grid, **kw)
        if grid.K == 8.0 and (f.a, f.b) == (bad.a, bad.b):
            u_minus = data.u_minus.copy()
            u_minus[3] = np.inf
            return BoundaryData(grid, u_minus, data.u_plus)
        return data

    monkeypatch.setattr(cli, "endpoint_data", poisoned)
    records = run_sweep(cfg)
    assert len(records) == len(clean) == 2 * 2 * 3 * 2
    failed = [i for i, r in enumerate(records) if r.error]
    # the (n = 2, trial = 1) cell of each eps block of K = 8
    assert failed == [12 + 3, 18 + 3]
    for i, (r, c) in enumerate(zip(records, clean)):
        assert (r.K, r.eps, r.n, r.seed) == (c.K, c.eps, c.n, c.seed)
        if i in failed:
            assert r.error == "non-finite endpoint data"
            assert np.isnan(r.l2_error) and np.isnan(r.reg_param)
        else:
            assert (r.reg_param, r.l2_error) == (c.reg_param, c.l2_error)


def test_tsvd_sweep_runs_no_discrepancy_scan(monkeypatch):
    # TSVD ignores lambda, so a noisy TSVD cell must not pay for a Morozov scan
    cfg = parse_config_text(
        "frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0,1e-2\n"
        "sweep.n_list = 1,3\nsweep.trials = 1\ninverse.n_basis = 31\n"
        "inverse.method = tsvd\ninverse.k = 12\n"
    )
    clean = run_sweep(cfg)
    real, calls = cli.morozov_lambda, []

    def counted(*args, **kw):
        calls.append(args[2])
        return real(*args, **kw)

    monkeypatch.setattr(cli, "morozov_lambda", counted)
    records = run_sweep(cfg)
    assert calls == []
    assert [r.error for r in records] == [""] * 8
    assert [(r.K, r.eps, r.n, r.method, r.reg_param, r.l2_error, r.seed) for r in records] \
        == [(c.K, c.eps, c.n, c.method, c.reg_param, c.l2_error, c.seed) for c in clean]
    # the Tikhonov cells with eps > 0 still take their lambda from the scan,
    # one scan per (K, eps) block
    run_sweep(replace(cfg, method="tikhonov"))
    assert calls == [1e-2] * 2


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


@pytest.mark.parametrize("command", ["verify", "forward", "reconstruct", "sweep"])
def test_negative_seed_flag_names_its_key(command, tmp_path, capsys):
    # a negative seed is refused when the config is built, before any
    # command reads it, with the same exit code and key on every command
    out = tmp_path / "o.csv"
    args = [command, "--seed", "-1", "--out", str(out)]
    if command == "reconstruct":
        args += ["--data", str(tmp_path / "d.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "noise.seed" in err and "non-negative" in err
    assert not out.exists()


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
        read_boundary_csv(data_path, 5.0)
    out = tmp_path / "rec.csv"
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--data", str(data_path), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mangle, where", [
    (lambda lines: [], "has no header row"),
    (lambda lines: lines[:1], "no data rows in"),
    (lambda lines: ["omega,re_u_minus"] + lines[1:], "header row of"),
    (lambda lines: lines[:4] + [",".join(lines[4].split(",")[:3])] + lines[5:],
     "data row 4 of"),
    (lambda lines: lines[:4] + [lines[4] + ",0"] + lines[5:], "data row 4 of"),
    (lambda lines: lines[:4] + ["9" * 200_000] + lines[5:], "line 5 of"),
    (lambda lines: lines[:2] + ["abc" + lines[2][lines[2].index(","):]] + lines[3:],
     "'abc' in data row 2 of"),
], ids=["empty", "header_only", "wrong_header", "short_row", "long_row", "huge_field",
        "non_numeric"])
def test_reconstruct_rejects_malformed_data(mangle, where, tmp_path, capsys):
    # an empty file, a header and no rows, a wrong header, a short or
    # long row, a field over the csv module's size limit and a cell that
    # is not a number each exit 2, naming the file (and the row and the
    # bad cell where there is one)
    cfg_path, data_path = _forward_csv(tmp_path)
    lines = mangle(data_path.read_text().splitlines())
    data_path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=where):
        read_boundary_csv(data_path, 5.0)
    out = tmp_path / "rec.csv"
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--data", str(data_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert where in err and str(data_path) in err
    assert not out.exists()


@pytest.mark.parametrize("column, cell", [(2, "xyz"), (0, "xyz"), (7, "1.5")])
def test_read_sweep_csv_names_the_bad_cell(column, cell, tmp_path):
    # a cell its column cannot read (n, K and seed here) names the cell,
    # the data row and the file
    path = tmp_path / "s.csv"
    write_sweep_csv(path, [ExperimentRecord(10.0, 0.01, 2, "tikhonov", 0.5, 0.1, 3.0, 7)] * 3)
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[column] = cell
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"'{cell}' in data row 3 of") as exc:
        read_sweep_csv(path)
    assert str(path) in str(exc.value)


def test_conditioning_warning_is_not_a_test_error(tmp_path):
    # inverse's deliberate ConditioningWarning is attributed to its caller,
    # here cli (stacklevel=2); the test filters turn every other
    # RuntimeWarning from cli into an error but let this one through, so
    # a rank-deficient TSVD run still exits 0
    cfg_path, data_path = _forward_csv(
        tmp_path, "inverse.method = tsvd\ninverse.n_basis = 41\ninverse.k = 41\n")
    args = ["reconstruct", "--config", str(cfg_path), "--data", str(data_path),
            "--out", str(tmp_path / "rec.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 0
    assert any(issubclass(w.category, ConditioningWarning) for w in caught)
    assert main(args) == 0


def test_reconstruct_skips_blank_lines(tmp_path):
    cfg_path, data_path = _forward_csv(tmp_path)
    text = data_path.read_text()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n" + text.replace("\n", "\n\n"))
    for path in (data_path, spaced):
        assert main(["reconstruct", "--config", str(cfg_path),
                     "--data", str(path), "--out", str(tmp_path / f"rec_{path.name}")]) == 0
    assert (tmp_path / "rec_data.csv").read_bytes() == (tmp_path / "rec_spaced.csv").read_bytes()


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


_AMP_1E300 = "source.amp_re = 1e300\nsource.amp_im = 1e300\n"
_EPS_1E300 = "noise.eps = 1e300\n"


@pytest.mark.parametrize("extra, forward_code", [
    # finite data whose squares overflow: forward's epsilon is finite
    ("medium.c1 = 1e-300\n", 0),
    (_AMP_1E300, 0),  # and so are reconstruct's figures
    (_EPS_1E300, 0),  # forward reads no noise, and the Morozov ladder rescales
    ("medium.c1 = 1e-300\nnoise.eps = 1e-2\n", 0),  # the Tikhonov solve overflows
    # finite data, about 1e300, whose norm is past the double range
    ("medium.c1 = 1e-6\nmedium.c2 = 1e-6\nfrequency.K = 1e6\nfrequency.omega_floor = 5e5\n"
     "source.amp_re = 1e300\nsource.amp_im = 1e300\n", 3),
])
def test_overflowing_figures_exit_3_and_write_nothing(extra, forward_code, tmp_path, capsys):
    # valid configs whose epsilon, residual or error overflow: each run
    # that would print or write inf or nan exits 3 and writes nothing.
    # At amplitude 1e300 the squares overflow but every figure is finite:
    # reconstruct exits 0 with the relative error of the 1e150 run.  So
    # does noise of data norm 1e300: the Morozov ladder's residuals are
    # summed again rescaled, and reconstruct exits 0 with finite figures
    base = "frequency.n_omega = 40\nfrequency.K = 10\ninverse.n_basis = 41\n"
    cfg_path, data, out = tmp_path / "run.cfg", tmp_path / "d.csv", tmp_path / "r.csv"

    def run(text):
        cfg_path.write_text(text)
        assert main(["forward", "--config", str(cfg_path), "--out", str(data)]) == forward_code
        assert data.exists() == (forward_code == 0)
        if forward_code:
            # the refused data, written past the gate for reconstruct to read
            cfg = parse_config_text(text)
            forward.write_boundary_csv(forward.boundary_sweep(
                build_source(cfg), Medium(cfg.c1, cfg.c2), build_grid(cfg)), data)
        capsys.readouterr()
        return main(["reconstruct", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out)])

    if extra == _AMP_1E300:
        rel = {}
        for amp in ("1e150", "1e300"):
            assert run(base + extra.replace("1e300", amp)) == 0
            rel[amp] = float(capsys.readouterr().out.split("rel=")[1])
            assert out.exists()
        assert rel["1e300"] == pytest.approx(rel["1e150"], rel=1e-6)
        return
    if extra == _EPS_1E300:
        assert run(base + extra) == 0
        printed = capsys.readouterr().out.split()
        figures = {k: float(v) for k, v in (f.split("=") for f in printed if "=" in f)
                   if k != "method"}
        assert set(figures) == {"reg", "residual", "l2_error", "rel"}
        assert all(np.isfinite(v) for v in figures.values()), printed
        assert figures["residual"] <= 1.1e300
        assert out.exists()
        return
    assert run(base + extra) == 3
    assert "nothing written" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "sweep"])
def test_unresolvable_rate_names_its_keys(command, tmp_path, capsys):
    # medium.c2 = 1e300 asks forward's quadrature rule for ~1e302 nodes;
    # the sweep's operator needs no rule, and its layer amplitudes leave
    # the double range (greens.WavenumberRangeError)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("medium.c2 = 1e300\nsweep.K_list = 5\nsweep.trials = 1\n")
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "medium.c2" in err and "frequency.K" in err
    reason = {"forward": "quadrature nodes",
              "sweep": "layer amplitudes leave the floating-point range"}[command]
    assert reason in err
    assert not (tmp_path / "o.csv").exists()


def test_sweep_needs_no_rule_for_its_operator(tmp_path, capsys):
    # medium.c2 = 1e10 would ask a cell rule for 1.25e11 nodes; the
    # sweep's operator is the hats' exact transforms, and its sources lie
    # right of the interface, where the speed is medium.c1
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "s.csv"
    cfg_path.write_text("medium.c2 = 1e10\nsweep.K_list = 5\nsweep.eps_list = 0,1e-2\n"
                        "sweep.n_list = 1\nsweep.trials = 1\n")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    records = cli.read_sweep_csv(out)
    assert len(records) == 2
    for r in records:
        assert not r.error and np.isfinite(r.reg_param) and np.isfinite(r.l2_error), r
        assert 0 < r.l2_error < 1


def test_sweep_out_of_range_cells_name_stage_and_key(tmp_path, capsys):
    # a tiny medium.c1 gives operator entries of ~1e282: each solve
    # overflows, and its cell records the stage and the key; no
    # RuntimeWarning escapes (Tier-1's filters stay in force).  The
    # entries of that size are rounding residue: the direct and reflected
    # waves cancel, and the true operator stays O(1).  At c1 = 1e-300 the
    # exact transforms' unit-frequency amplitudes cancel exactly and
    # both cells finish; at 1.7e-300 they leave entries of ~1e282, as the
    # quadrature does
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "s.csv"
    cfg_path.write_text("medium.c1 = 1.7e-300\nfrequency.n_omega = 40\ninverse.n_basis = 31\n"
                        "sweep.K_list = 5\nsweep.eps_list = 0,1e-2\nsweep.n_list = 1\n"
                        "sweep.trials = 1\n")
    with warnings.catch_warnings(record=True) as caught:
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    records = cli.read_sweep_csv(out)
    assert [r.eps for r in records] == [0.0, 1e-2]
    for record, stage in zip(records, ("Tikhonov solve", "Morozov solve")):
        assert record.error.startswith(f"{stage} out of range")
        assert "medium.c1 = 1.7e-300" in record.error


def test_tsvd_rank_is_capped_at_the_singular_value_count(tmp_path, capsys):
    # 32 frequencies give 64 rows: inverse.k = 81 solves at rank 64
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("frequency.n_omega = 32\ninverse.n_basis = 81\ninverse.k = 81\n"
                        "inverse.method = tsvd\n")
    data = tmp_path / "d.csv"
    assert main(["forward", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["reconstruct", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert "reg=64 " in capsys.readouterr().out


def test_every_subcommand_runs_without_scipy(tmp_path):
    # helmlayer needs numpy alone: importing the package, verify on the
    # default config, forward and reconstruct on a B-spline source and a
    # small sweep leave scipy unloaded
    cfg = tmp_path / "run.cfg"
    cfg.write_text("source.kind = bspline\nsource.order = 3\nfrequency.K = 10\n"
                   "frequency.n_omega = 60\ninverse.n_basis = 41\n")
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text("frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0,1e-2\n"
                         "sweep.n_list = 1,2\nsweep.trials = 2\ninverse.n_basis = 31\n")
    script = f"""
import sys
import helmlayer
from helmlayer import cli
assert cli.main(["verify"]) == 0
assert cli.main(["forward", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "d.csv")!r}]) == 0
assert cli.main(["reconstruct", "--config", {str(cfg)!r}, "--data", {str(tmp_path / "d.csv")!r},
                 "--out", {str(tmp_path / "r.csv")!r}]) == 0
assert cli.main(["sweep", "--config", {str(sweep_cfg)!r}, "--out", {str(tmp_path / "s.csv")!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    assert _run_child(script) == "[]"


def _run_child(script, **env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, **env), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


_MODULES = [getattr(helmlayer, m) for m in
            ("model", "quadrature", "greens", "forward", "fourier", "inverse", "cli")]


def test_keyword_knob_count_is_pinned():
    # keyword parameters with defaults on the module-level functions of
    # the seven modules: a new knob has to raise this pin
    count = sum(p.default is not p.empty
                for m in _MODULES for f in vars(m).values()
                if inspect.isfunction(f) and f.__module__ == m.__name__
                for p in inspect.signature(f).parameters.values())
    assert count == 19


def test_public_name_count_is_pinned():
    # every name a module exports exists there, and the package re-exports
    # only exported names: a new public name has to raise these pins
    for m in _MODULES:
        assert [name for name in m.__all__ if not hasattr(m, name)] == [], m.__name__
    exported = {name for m in _MODULES for name in m.__all__}
    public = [name for name, value in vars(helmlayer).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(set(public) - exported) == []
    assert len(public) == 50
    assert sum(len(m.__all__) for m in _MODULES) == 67


def test_forward_norm_of_data_whose_squares_overflow(tmp_path, capsys):
    # at amplitude 1e300 the endpoint data are finite (max |u| is about
    # 4e300) but their squares overflow: epsilon is 1e150 times the 1e150
    # run's, printed and recomputed from the written data
    printed, recomputed = {}, {}
    for amp in ("1e150", "1e300"):
        cfg, out = tmp_path / f"{amp}.cfg", tmp_path / f"{amp}.csv"
        cfg.write_text(f"source.amp_re = {amp}\nsource.amp_im = {amp}\n")
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        printed[amp] = float(capsys.readouterr().out.split("epsilon = ")[1].split(")")[0])
        recomputed[amp] = epsilon_norm(read_boundary_csv(out, RunConfig().K))
    assert printed["1e300"] == pytest.approx(1e150 * printed["1e150"], rel=1e-12)
    assert recomputed["1e300"] == pytest.approx(1e150 * recomputed["1e150"], rel=1e-12)


def test_config_key_count_is_pinned():
    # a new config key has to raise this pin, as a new keyword knob must
    assert len(cli._CONFIG_KEYS) == 26


def test_readme_key_table_matches_the_declaration():
    # the README lists every key in canonical order, each at its default;
    # the floor's default is written as the rule K/n_omega
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("Keys and defaults:", 1)[1].split("```")[1].strip().splitlines()
    assert [line.split("=", 1)[0].strip() for line in lines] == list(cli._CONFIG_KEYS)
    floor = "frequency.omega_floor = K/n_omega"
    assert floor in lines
    assert parse_config_text("\n".join(line for line in lines if line != floor)) == RunConfig()


def test_import_starts_no_thread():
    # importing helmlayer starts no thread and loads no executor, and a
    # sweep on one CPU makes no thread
    script = """
import sys, threading
import helmlayer
from helmlayer import cli, forward
print(threading.active_count(), "concurrent.futures" in sys.modules, end=" ")
forward._cores = lambda: 1
cli.run_sweep(cli.parse_config_text("frequency.n_omega = 40\\nsweep.K_list = 4,8\\n"
                                    "sweep.eps_list = 0,1e-2\\nsweep.n_list = 1,2\\n"
                                    "sweep.trials = 2\\ninverse.n_basis = 31\\n"))
print(threading.active_count())
"""
    assert _run_child(script) == "1 False 1"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two CPUs")
def test_sweep_on_one_cpu_matches_all_cpus(tmp_path):
    # one CPU means no helper thread for a band's sources, which then run
    # after its SVD; the BLAS thread count is held at 1 on both sides, so
    # only the thread count differs
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
