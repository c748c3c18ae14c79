import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from helmlayer import cli, forward
from helmlayer.forward import (BoundaryData, _endpoint_map, boundary_sweep,
                               check_radiation_many, fd_oracle, forward_field, forward_field_dx,
                               interface_traces_many, read_boundary_csv, write_boundary_csv)
from helmlayer.fourier import endpoint_amplitude_bound_many, fit_loglog, halfline_ft_many
from helmlayer.model import (FrequencyGrid, Medium, SourceSpec, split_source,
                             wavenumbers)


def test_zero_source_field_is_zero():
    zero = SourceSpec.bump(-0.5, 0.5, amplitude=0.0)
    med = Medium(1.0, 1.5)
    assert forward_field(zero, med, 2.0, 0.3) == 0.0
    # a half that carries nothing has an empty rule and the field 0
    empty = split_source(SourceSpec.bump(0.2, 0.8)).f2
    assert forward_field(empty, med, 2.0, 0.3) == 0j
    x, u = fd_oracle(zero, med, 2.0, 256)
    assert np.all(u == 0.0)
    rm, rp = check_radiation_many([(zero, med, 2.0)])[0]
    assert rm == 0.0 and rp == 0.0


def test_homogeneous_endpoint_matches_halfline_transform():
    # u(1, w) = i e^{i c w} / (2 c w) * fhat(c w) for a one-sided source
    c = 1.2
    med = Medium(c, c)
    f = SourceSpec.bump(0.2, 0.8, amplitude=0.7 - 0.3j)
    pair = split_source(f)
    for om in (0.7, 2.0, 5.5):
        k = c * om
        u1 = forward_field(f, med, om, 1.0)
        pred = 1j * np.exp(1j * k) / (2 * k) * halfline_ft_many(pair, "right", [k])[0]
        assert abs(u1 - pred) < 1e-12


def test_layered_field_matches_fd_oracle():
    med = Medium(1.0, 2.0)
    f = SourceSpec.bump(-0.5, 0.6)
    om = 3.0
    x, u = fd_oracle(f, med, om, 4096)
    for xi, idx in ((-1.0, 0), (1.0, -1)):
        ref = forward_field(f, med, om, xi)
        assert abs(u[idx] - ref) / abs(ref) < 1e-4


def test_fd_oracle_second_order_convergence():
    med = Medium(0.8, 1.4)
    f = SourceSpec.bump(-0.4, 0.5)
    om = 2.5
    ref_m = forward_field(f, med, om, -1.0)
    ref_p = forward_field(f, med, om, 1.0)
    errs, hs = [], []
    for n in (512, 1024, 2048):
        x, u = fd_oracle(f, med, om, n)
        errs.append(abs(u[0] - ref_m) + abs(u[-1] - ref_p))
        hs.append(2.0 / n)
    order = fit_loglog(hs, errs)[0]
    assert 1.8 < order < 2.2


def test_fd_oracle_validation():
    med = Medium(1.0, 1.5)
    f = SourceSpec.bump(-0.4, 0.5)
    with pytest.raises(ValueError):
        fd_oracle(f, med, 2.0, 32)
    with pytest.raises(ValueError):
        fd_oracle(f, med, 2.0, 129)


def _fd_dense(f, med, om, n):
    # the full five-diagonal system of fd_oracle's docstring, boundary rows
    # un-eliminated, solved densely with partial pivoting
    k1, k2 = wavenumbers(med, om)
    h = 2.0 / n
    x = np.linspace(-1.0, 1.0, n + 1)
    ksq = np.where(x > 0, k1 ** 2, k2 ** 2).astype(complex)
    ksq[n // 2] = 0.5 * (k1 ** 2 + k2 ** 2)
    a = np.zeros((n + 1, n + 1), dtype=complex)
    b = np.zeros(n + 1, dtype=complex)
    for j in range(1, n):
        a[j, j - 1:j + 2] = 1.0 / h ** 2, ksq[j] - 2.0 / h ** 2, 1.0 / h ** 2
    b[1:-1] = -f(x[1:-1])
    a[0, :3] = -3.0 / (2 * h) + 1j * k2, 4.0 / (2 * h), -1.0 / (2 * h)
    a[n, n - 2:] = 1.0 / (2 * h), -4.0 / (2 * h), 3.0 / (2 * h) - 1j * k1
    return np.linalg.solve(a, b)


def test_fd_oracle_matches_dense_solve():
    rng = np.random.default_rng(2024)
    for n in (64, 96, 128, 256, 512):
        for i in range(4):
            med = Medium(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            om = rng.uniform(0.5, 12.0)
            a = rng.uniform(-0.9, 0.3)
            b = a + rng.uniform(0.2, 0.6)
            amp = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            # a grid source reaches the boundary rows' right-hand sides
            samples = rng.normal(size=41) + 1j * rng.normal(size=41)
            f = (SourceSpec.bump(a, b, amp), SourceSpec.bspline(a, b, 2, amp),
                 SourceSpec.modulated_bump(a, b, rng.uniform(0.0, 10.0), amp),
                 SourceSpec.from_grid(np.linspace(-0.999, 0.999, 41), samples))[i]
            x, u = fd_oracle(f, med, om, n)
            ref = _fd_dense(f, med, om, n)
            assert np.array_equal(x, np.linspace(-1.0, 1.0, n + 1))
            assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_fd_oracle_singular_system_raises(monkeypatch):
    # kappa = 0 leaves u'' = -f with u'(-1) = u'(1) = 0, a singular system
    monkeypatch.setattr(forward, "wavenumbers", lambda medium, omega: (0.0, 0.0))
    with pytest.raises(RuntimeError, match="singular"):
        fd_oracle(SourceSpec.bump(-0.4, 0.5), Medium(1.0, 1.5), 2.0, 64)


def test_boundary_sweep_matches_pointwise_and_scales():
    med = Medium(1.0, 1.5)
    f = SourceSpec.bump(-0.3, 0.6, amplitude=0.5 + 0.25j)
    grid = FrequencyGrid.uniform(10.0, 20)
    data = boundary_sweep(f, med, grid)
    for i in (0, 7, 19):
        om = grid.omegas[i]
        assert abs(data.u_minus[i] - forward_field(f, med, om, -1.0)) < 1e-12
        assert abs(data.u_plus[i] - forward_field(f, med, om, 1.0)) < 1e-12
    doubled = boundary_sweep(SourceSpec.bump(-0.3, 0.6, amplitude=1.0 + 0.5j), med, grid)
    assert np.max(np.abs(doubled.u_minus - 2 * data.u_minus)) < 1e-13
    assert np.max(np.abs(doubled.u_plus - 2 * data.u_plus)) < 1e-13


def test_one_sided_sweep_profile_is_transform():
    c = 1.0
    med = Medium(c, c)
    f = SourceSpec.bump(0.2, 0.8)
    pair = split_source(f)
    grid = FrequencyGrid.uniform(20.0, 60)
    data = boundary_sweep(f, med, grid)
    om = grid.omegas
    pred = 1j * np.exp(1j * c * om) / (2 * c * om) * halfline_ft_many(pair, "right", c * om)
    assert np.max(np.abs(data.u_plus - pred)) < 1e-10


def test_linearity_on_shared_grid_sources():
    rng = np.random.default_rng(21)
    x = np.linspace(-0.5, 0.5, 81)
    v1 = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    v2 = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    al, be = 1.3 - 0.2j, -0.7 + 0.9j
    f1 = SourceSpec.from_grid(x, v1)
    f2 = SourceSpec.from_grid(x, v2)
    fc = SourceSpec.from_grid(x, al * v1 + be * v2)
    med = Medium(1.1, 0.7)
    om = 3.0
    for pt in (-1.0, -0.2, 0.4, 1.0):
        lin = al * forward_field(f1, med, om, pt) + be * forward_field(f2, med, om, pt)
        assert abs(forward_field(fc, med, om, pt) - lin) < 1e-12


def test_interface_traces_examples():
    med = Medium(1.0, 1.5)
    f = SourceSpec.bump(-0.6, 0.7)
    report = interface_traces_many([(f, med, 2.0)])[0]
    assert report.max_residual < 1e-10

    # one-sided source: z2 vanishes and u(0) is a pure transmitted transform
    g = SourceSpec.bump(0.2, 0.8, amplitude=1.0 - 0.4j)
    rep = interface_traces_many([(g, med, 2.0)])[0]
    k1, k2 = wavenumbers(med, 2.0)
    f1m = halfline_ft_many(split_source(g), "right", [-k1])[0]
    assert abs(rep.z_measured[1]) < 1e-12
    assert abs(rep.u0 - 1j * f1m / (k1 + k2)) < 1e-12

    # even source in a homogeneous medium has zero derivative trace
    h = SourceSpec.bump(-0.5, 0.5)
    rep = interface_traces_many([(h, Medium(1.2, 1.2), 3.0)])[0]
    assert abs(rep.du0) < 1e-13
    assert abs(rep.du0_predicted) < 1e-13


def test_trace_identities_random_battery():
    rng = np.random.default_rng(22)
    for _ in range(30):
        med = Medium(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        om = rng.uniform(0.3, 8.0)
        a = rng.uniform(-0.8, 0.3)
        b = a + rng.uniform(0.25, 0.6)
        f = SourceSpec.modulated_bump(a, min(b, 0.9), rng.uniform(0, 6),
                                      amplitude=np.exp(1j * rng.uniform(0, 6.3)))
        assert interface_traces_many([(f, med, om)])[0].max_residual < 1e-8


def test_radiation_residuals():
    rng = np.random.default_rng(23)
    for _ in range(30):
        med = Medium(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        om = rng.uniform(0.3, 8.0)
        f = SourceSpec.bump(rng.uniform(-0.7, -0.1), rng.uniform(0.1, 0.7))
        rm, rp = check_radiation_many([(f, med, om)])[0]
        assert rm < 1e-10 and rp < 1e-10


def test_fd_radiation_closure_shrinks_second_order():
    # measure the outgoing-condition defect of the fd solution with a
    # higher-order one-sided derivative; it should shrink like h^2
    med = Medium(1.0, 1.6)
    f = SourceSpec.bump(-0.4, 0.5)
    om = 2.0
    k1, _ = wavenumbers(med, om)
    res, hs = [], []
    for n in (256, 512, 1024, 2048):
        x, u = fd_oracle(f, med, om, n)
        h = 2.0 / n
        du = (11 * u[-1] - 18 * u[-2] + 9 * u[-3] - 2 * u[-4]) / (6 * h)
        res.append(abs(du - 1j * k1 * u[-1]))
        hs.append(h)
    order = fit_loglog(hs, res)[0]
    assert 1.6 < order < 2.4


def test_outgoing_extension():
    med = Medium(1.0, 1.5)
    f = SourceSpec.bump(-0.5, 0.4)
    om = 3.0
    k1, k2 = wavenumbers(med, om)
    u1 = forward_field(f, med, om, 1.0)
    for x in (0.5, 0.7, 0.9):
        assert abs(forward_field(f, med, om, x) - u1 * np.exp(1j * k1 * (x - 1.0))) < 1e-12
    um = forward_field(f, med, om, -1.0)
    for x in (-0.9, -0.7, -0.6):
        assert abs(forward_field(f, med, om, x) - um * np.exp(-1j * k2 * (x + 1.0))) < 1e-12


def test_frequency_scaling_invariance():
    f = SourceSpec.bump(-0.4, 0.6)
    med = Medium(1.0, 1.5)
    om, lam = 2.0, 3.0
    scaled = Medium(med.c1 / lam, med.c2 / lam)
    for x in (-1.0, 1.0):
        a = forward_field(f, med, om, x)
        b = forward_field(f, scaled, lam * om, x)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_derivative_field_consistent():
    med = Medium(1.0, 1.7)
    f = SourceSpec.bump(-0.5, 0.5)
    om = 2.3
    h = 1e-6
    for x in (-0.8, 0.3, 0.9):
        fd = (forward_field(f, med, om, x + h) - forward_field(f, med, om, x - h)) / (2 * h)
        assert abs(forward_field_dx(f, med, om, x) - fd) < 1e-5


def test_field_and_derivative_refuse_points_outside_the_interval():
    f, med = SourceSpec.bump(-0.5, 0.5), Medium(1.0, 1.5)
    for field in (forward_field, forward_field_dx):
        for x in (-1.5, 1.5):
            with pytest.raises(ValueError, match="outside"):
                field(f, med, 2.0, x)
        with pytest.raises(ValueError, match="omega"):
            field(f, med, 0.0, 0.3)


# each id names the identity its routine checks
@pytest.mark.parametrize("check", [endpoint_amplitude_bound_many, check_radiation_many,
                                   interface_traces_many],
                         ids=["endpoint_amplitude_bound", "check_radiation", "interface_traces"])
@pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf])
def test_single_frequency_checks_refuse_bad_omega(check, omega):
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        check([(SourceSpec.bump(-0.5, 0.5), Medium(1.0, 1.5), omega)])


def test_boundary_csv_roundtrip(tmp_path):
    med = Medium(1.0, 1.5)
    f = SourceSpec.bump(-0.3, 0.6)
    grid = FrequencyGrid.uniform(5.0, 12)
    data = boundary_sweep(f, med, grid)
    path = tmp_path / "data.csv"
    write_boundary_csv(data, path)
    back = read_boundary_csv(path, grid.K)
    assert back.grid.K == grid.K
    assert np.array_equal(back.grid.omegas, data.grid.omegas)
    assert np.array_equal(back.u_minus, data.u_minus)
    assert np.array_equal(back.u_plus, data.u_plus)
    with pytest.raises(ValueError, match="length must match the frequency grid"):
        BoundaryData(grid, data.u_minus[:-1], data.u_plus)
    write_boundary_csv(back, tmp_path / "data2.csv")
    assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "data2.csv").read_bytes()


MAP_CHUNKS = (1, 2 * 150, 7 * 150 + 3, 32768, 10 ** 9)


def _map_inputs(n):
    rng = np.random.default_rng(n)
    om = np.sort(rng.uniform(0.1, 40.0, n))
    y = np.sort(rng.uniform(-0.95, 0.95, 150))
    return om, y, (rng.standard_normal(150) + 1j * rng.standard_normal(150),
                   rng.standard_normal((150, 7)))


@pytest.mark.parametrize("n", [1, 2, 3, 33, 400])
def test_endpoint_map_independent_of_workers(monkeypatch, n):
    med = Medium(1.0, 1.5)
    om, y, weight_sets = _map_inputs(n)
    for weights in weight_sets:
        for chunk in MAP_CHUNKS:
            monkeypatch.setattr(forward, "_CHUNK", chunk)
            monkeypatch.setattr(forward, "_cores", lambda: 1)
            ref = _endpoint_map(om, y, weights, med)
            for workers in (2, 3):
                monkeypatch.setattr(forward, "_cores", lambda: workers)
                got = _endpoint_map(om, y, weights, med)
                assert np.array_equal(got, ref)


def test_no_thread_outlives_its_work(monkeypatch):
    # helper threads are made per call and joined before it returns or
    # raises, and a helper's exception reaches the caller
    monkeypatch.setattr(forward, "_cores", lambda: 2)
    before = threading.active_count()
    cli.run_sweep(cli.parse_config_text(
        "frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0\n"
        "sweep.n_list = 1\nsweep.trials = 2\ninverse.n_basis = 31\n"))
    assert threading.active_count() == before
    om, y, (weights, _) = _map_inputs(400)
    monkeypatch.setattr(forward, "_CHUNK", 300)
    with pytest.raises(ValueError):
        _endpoint_map(om, y, weights[:-1], Medium(1.0, 1.5))
    assert threading.active_count() == before


def test_sweep_off_the_main_thread_starts_no_thread(monkeypatch):
    # a sweep makes no thread of its own: with two CPUs, called from the
    # main thread or from any other, it computes every source's data on
    # the calling thread and starts no thread
    monkeypatch.setattr(forward, "_cores", lambda: 2)
    cfg = cli.parse_config_text(
        "frequency.n_omega = 40\nsweep.K_list = 4,8\nsweep.eps_list = 0\n"
        "sweep.n_list = 1\nsweep.trials = 2\ninverse.n_basis = 31\n")
    real, ran_on, started, seen = cli._spline_columns, [], [], {}
    real_start = threading.Thread.start

    def traced(*args):
        ran_on.append(threading.current_thread())
        return real(*args)

    def start(thread):
        started.append(thread)
        real_start(thread)

    def caller():
        seen["records"] = cli.run_sweep(cfg)

    monkeypatch.setattr(cli, "_spline_columns", traced)
    monkeypatch.setattr(threading.Thread, "start", start)
    caller()
    assert ran_on == [threading.main_thread()] * 4 and started == []
    other = threading.Thread(target=caller)
    other.start()
    other.join(timeout=120)
    assert not other.is_alive()
    assert len(seen["records"]) == 4 and all(r.error == "" for r in seen["records"])
    assert ran_on[4:] == [other] * 4 and started == [other]


def test_endpoint_map_blocks_give_the_single_product():
    # With single-threaded BLAS every split into blocks of two or more
    # rows, on any number of workers, gives the doubles of the one product
    # of the whole kernel table.  (A multi-threaded BLAS may split a large
    # product its own way, as a change of its thread count does.)
    script = f"""
import numpy as np
from helmlayer import forward
from helmlayer.greens import _green
from helmlayer.model import Medium
med = Medium(1.0, 1.5)
for n in (1, 2, 3, 33, 400):
    rng = np.random.default_rng(n)
    om = np.sort(rng.uniform(0.1, 40.0, n))
    y = np.sort(rng.uniform(-0.95, 0.95, 150))
    for weights in (rng.standard_normal(150) + 1j * rng.standard_normal(150),
                    rng.standard_normal((150, 7))):
        ref = np.concatenate([_green(-1.0, y, med, om) @ weights, _green(1.0, y, med, om) @ weights])
        for workers in (1, 2, 3):
            forward._cores = lambda: workers
            for chunk in {MAP_CHUNKS!r}:
                forward._CHUNK = chunk
                got = forward._endpoint_map(om, y, weights, med)
                assert np.array_equal(got, ref), (n, workers, chunk)
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_battery_blocks_give_the_same_draws(monkeypatch):
    # A batch cut into blocks at other draw boundaries (every draw its own
    # block, blocks of a few draws, one block) gives every draw's values
    # bit for bit, and so does a batch of that draw alone
    rng = np.random.default_rng(3)
    draws = [(cli._random_source(rng), cli._random_medium(rng), rng.uniform(0.2, 20.0))
             for _ in range(24)]
    draws.insert(7, (SourceSpec.bump(-0.5, 0.5, amplitude=0.0), Medium(1.0, 1.5), 2.0))
    nodes = [len(forward.source_rule(f, m.c_max * om)[0]) for f, m, om in draws]

    def battery(d):  # every value, each array with the draw axis first
        reps = interface_traces_many(d)
        return (endpoint_amplitude_bound_many(d), check_radiation_many(d),
                np.array([[rep.u0, rep.du0, *rep.z_predicted] for rep in reps]),
                *forward._draw_sums(d, [-1.0, 0.0, 1.0], (False, True)))

    monkeypatch.setattr(forward, "_CHUNK", sum(nodes))
    ref = battery(draws)
    for chunk in (1, max(nodes), 3 * max(nodes) + 1):
        monkeypatch.setattr(forward, "_CHUNK", chunk)
        assert all(np.array_equal(g, r) for g, r in zip(battery(draws), ref))
    for i in (0, 7, 24):
        assert all(np.array_equal(g, r[i:i + 1]) for g, r in zip(battery(draws[i:i + 1]), ref))


def _sweeps():
    med = Medium(1.0, 1.5)
    grid = FrequencyGrid.uniform(40.0, 400)
    return med, grid, [SourceSpec.bump(-0.6, 0.6), SourceSpec.bspline(0.1, 0.9, 3),
                       SourceSpec.modulated_bump(-0.8, 0.2, 6.0, 0.5 - 1j)]


def test_concurrent_callers_get_serial_result(monkeypatch):
    med, grid, fs = _sweeps()
    monkeypatch.setattr(forward, "_cores", lambda: 1)
    serial = [boundary_sweep(f, med, grid) for f in fs]
    # more workers than cores, and frequent thread switches; caller 0
    # runs on the main thread, so its maps make helpers beside caller 1
    monkeypatch.setattr(forward, "_cores", lambda: 3)
    got = [[None] * len(fs) for _ in range(2)]
    start = threading.Barrier(2)

    def caller(k):
        start.wait(timeout=30)
        for i in range(len(fs)):
            j = (i + k) % len(fs)  # the two callers take the sources in different orders
            got[k][j] = boundary_sweep(fs[j], med, grid)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        other = threading.Thread(target=caller, args=(1,))
        other.start()
        caller(0)
        other.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not other.is_alive()
    for results in got:
        for d, s in zip(results, serial):
            assert np.array_equal(d.u_minus, s.u_minus) and np.array_equal(d.u_plus, s.u_plus)


def _sweep_in_child(queue):
    med, grid, fs = _sweeps()
    d = boundary_sweep(fs[0], med, grid)
    queue.put((d.u_minus, d.u_plus))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_forked_child_makes_its_own_helpers(monkeypatch):
    # a forked child holds none of the parent's threads; its maps make
    # their own helpers and give the parent's result
    monkeypatch.setattr(forward, "_cores", lambda: 2)
    med, grid, fs = _sweeps()
    d = boundary_sweep(fs[0], med, grid)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_sweep_in_child, args=(queue,))
    child.start()
    try:
        u_minus, u_plus = queue.get(timeout=60)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert np.array_equal(u_minus, d.u_minus) and np.array_equal(u_plus, d.u_plus)


@pytest.mark.parametrize("workers", [2, 3])
def test_endpoint_map_from_pool_threads(workers):
    # Every thread of an executor runs a map at once; each map runs off
    # the main thread, so it takes all its blocks itself and must give
    # the 1-worker result.  Run in a child, which a hung map cannot keep
    # alive.
    script = f"""
import os
import threading
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from helmlayer import forward
from helmlayer.model import Medium
med = Medium(1.0, 1.5)
rng = np.random.default_rng(4)
om = np.sort(rng.uniform(0.1, 40.0, 400))
y = np.sort(rng.uniform(-0.95, 0.95, 150))
w = rng.standard_normal(150) + 1j * rng.standard_normal(150)
forward._CHUNK = 300
forward._cores = lambda: 1
ref = forward._endpoint_map(om, y, w, med)
forward._cores = lambda: {workers}
pool = ThreadPoolExecutor({workers} - 1)
start = threading.Barrier({workers} - 1)  # every executor thread holds a map before any map starts

def task():
    start.wait(timeout=30)
    return forward._endpoint_map(om, y, w, med)

futures = [pool.submit(task) for _ in range({workers} - 1)]
try:
    got = [fut.result(timeout=60) for fut in futures]
except Exception as exc:
    print(type(exc).__name__, flush=True)
    os._exit(1)
print(all(np.array_equal(g, ref) for g in got))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "True"
