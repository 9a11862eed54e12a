"""Acceptance gate: one test per top-level criterion.

Each test prints a single "[criterion N] PASS/FAIL ..." line with the measured
numbers next to their thresholds. Run with -s to see the lines as they happen:

    pytest tests/test_acceptance.py -v -s

Criterion 4 runs a reduced 3x2x2 search space by default; set KAFCM_FULL_GRID=1
to sweep the full 640-cell space instead.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from kafcm.baselines import mlp_forward, mlp_gradient, mlp_init
from kafcm.cli_harness import (
    build_dataset,
    canonical_config,
    main,
    run_pipeline,
    make_grid_task,
    split_for,
)
from kafcm.cognitive_graph import (
    KAFCMModel,
    StandardFCM,
    fcm_step,
    kafcm_step,
    new_kafcm,
    scaling_benchmark,
)
from kafcm.datagen import Dataset, MackeyGlassParams, gen_mackey_glass
from kafcm.edge_functions import EdgeFunction, edge_eval, edge_grad, silu
from kafcm.spline_core import basis_matrix, make_uniform_grid
from kafcm.symbolic import fit_candidates, sample_edge
from kafcm.training import (
    GridSearchSpace,
    grid_search,
    loss_rec,
    loss_total,
    model_gradient,
    predict_one_step,
)

REDUCED_SPACE = {
    "grid_sizes": [4, 11, 19],
    "learning_rates": [0.001, 0.1],
    "epoch_values": [500, 1500],
}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_experiment(experiment: str):
    """All three models on one shared split; returns (results, total seconds)."""
    base = canonical_config(experiment)
    splits = split_for(base, build_dataset(base))
    results = {}
    t0 = time.perf_counter()
    for kind in ("kafcm", "mlp", "fcm"):
        results[kind] = run_pipeline(canonical_config(experiment, model=kind), splits=splits)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def yerkes_runs():
    return run_experiment("yerkes")


@pytest.fixture(scope="module")
def sine_runs():
    return run_experiment("sine")


@pytest.fixture(scope="module")
def mackey_runs():
    return run_experiment("mackey")


def test_criterion_1_yerkes_reproduction(yerkes_runs):
    results, elapsed = yerkes_runs
    ka = results["kafcm"].metrics.mse
    mlp = results["mlp"].metrics.mse
    fcm = results["fcm"].metrics.mse
    ratio = fcm / ka
    ok = ka <= 1e-3 and mlp <= 1e-3 and fcm >= 0.3 and ratio >= 100 and elapsed <= 120
    report(
        1,
        ok,
        f"kafcm mse {ka:.3e} (need <=1e-3), mlp mse {mlp:.3e} (need <=1e-3), "
        f"fcm mse {fcm:.3e} (need >=0.3), kafcm/fcm gap {ratio:.0f}x (need >=100x), "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_2_sine_reproduction(sine_runs):
    results, elapsed = sine_runs
    ka = results["kafcm"].metrics.mse
    mlp = results["mlp"].metrics.mse
    fcm = results["fcm"].metrics.mse
    edge = results["kafcm"].model.edges[1][0]
    top = fit_candidates(sample_edge(edge, 200, edge_id=(1, 0)))[0]
    freq = abs(float(top.coefficients[1])) if top.form == "sinusoid" else float("nan")
    ok = (
        ka <= 1e-5
        and ka <= mlp / 10
        and fcm >= 0.3
        and top.form == "sinusoid"
        and 2.95 <= freq <= 3.05
        and top.r_squared >= 0.999
        and elapsed <= 180
    )
    report(
        2,
        ok,
        f"kafcm mse {ka:.3e} (need <=1e-5), mlp/kafcm {mlp / ka:.0f}x (need >=10x), "
        f"fcm mse {fcm:.3e} (need >=0.3), top fit {top.form} freq {freq:.4f} "
        f"(need 2.95..3.05) r2 {top.r_squared:.6f} (need >=0.999), "
        f"{elapsed:.1f}s (budget 180s)",
    )


def test_criterion_3_mackey_ordering(mackey_runs):
    results, elapsed = mackey_runs
    ka, mlp, fcm = (results[k].metrics for k in ("kafcm", "mlp", "fcm"))

    def ordered(attr):
        return getattr(ka, attr) < getattr(mlp, attr) < getattr(fcm, attr)

    ok = (
        ordered("mape_percent")
        and ka.mape_percent <= 20
        and ordered("max_abs_error")
        and ordered("std_dev_error")
        and elapsed <= 300
    )
    report(
        3,
        ok,
        f"mape% kafcm {ka.mape_percent:.2f} < mlp {mlp.mape_percent:.2f} < "
        f"fcm {fcm.mape_percent:.2f} (kafcm need <=20), max-abs "
        f"{ka.max_abs_error:.3f} < {mlp.max_abs_error:.3f} < {fcm.max_abs_error:.3f}, "
        f"std {ka.std_dev_error:.3f} < {mlp.std_dev_error:.3f} < {fcm.std_dev_error:.3f}, "
        f"{elapsed:.1f}s (budget 300s)",
    )


def test_criterion_4_hyperparameter_sensitivity_signs():
    t0 = time.perf_counter()
    if os.environ.get("KAFCM_FULL_GRID") == "1":
        space, label = GridSearchSpace(), "full space"
    else:
        space, label = GridSearchSpace(**REDUCED_SPACE), "reduced 3x2x2 space"
    parts = []
    ok = True
    for experiment in ("yerkes", "sine", "mackey"):
        cfg = canonical_config(experiment)
        splits = split_for(cfg, build_dataset(cfg))
        rep = grid_search(space, splits, make_grid_task(cfg), base_seed=cfg.seed)
        c_eta = rep.correlations["learning_rate"]
        c_epochs = rep.correlations["epochs"]
        ok = ok and c_eta < 0 and c_epochs < 0
        parts.append(f"{experiment} corr(eta)={c_eta:+.3f} corr(epochs)={c_epochs:+.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 600
    report(4, ok, f"{label}: " + "; ".join(parts) + f" (all need <0); {elapsed:.0f}s (budget 600s)")


def central_diff(fn, get, put, h=1e-6):
    x0 = get()
    put(x0 + h)
    hi = fn()
    put(x0 - h)
    lo = fn()
    put(x0)
    return (hi - lo) / (2 * h)


def close(a, b, rel=1e-4, floor=1e-7):
    return abs(a - b) <= max(floor, rel * abs(b))


def _check_partition_of_unity(rng) -> float:
    worst = 0.0
    for _ in range(20):
        lo = float(rng.uniform(-3, 0))
        hi = lo + float(rng.uniform(0.5, 4))
        grid = make_uniform_grid(lo, hi, int(rng.integers(1, 13)), int(rng.integers(0, 6)))
        xs = rng.uniform(lo, hi, 1000)
        worst = max(worst, float(np.abs(basis_matrix(grid, xs).sum(axis=1) - 1).max()))
    return worst


def _random_edge(rng, grid):
    return EdgeFunction(
        w_base=float(rng.uniform(-1, 1)),
        w_spline=float(rng.uniform(-1, 1)),
        alpha=rng.uniform(-1, 1, grid.basis_count),
        grid=grid,
        base=("silu", "identity")[int(rng.integers(2))],
    )


def _check_gradients(rng) -> tuple[int, int]:
    """(instances checked, instances that disagreed with finite differences)."""
    checked = bad = 0
    for _ in range(20):  # edge level
        grid = make_uniform_grid(-1, 1, int(rng.integers(3, 9)), int(rng.integers(2, 4)))
        edge = _random_edge(rng, grid)
        x = float(rng.uniform(-0.9, 0.9))
        g = edge_grad(edge, x)
        fine = close(g.d_w_base, central_diff(lambda: edge_eval(edge, x), lambda: edge.w_base, lambda v: setattr(edge, "w_base", v)))
        fine &= close(g.d_w_spline, central_diff(lambda: edge_eval(edge, x), lambda: edge.w_spline, lambda v: setattr(edge, "w_spline", v)))
        k = int(rng.integers(grid.basis_count))

        def put_alpha(v, edge=edge, k=k):
            edge.alpha[k] = v

        fine &= close(g.d_alpha[k], central_diff(lambda: edge_eval(edge, x), lambda: edge.alpha[k], put_alpha))
        fd_x = (edge_eval(edge, x + 1e-6) - edge_eval(edge, x - 1e-6)) / 2e-6
        fine &= close(g.d_input, fd_x)
        checked += 1
        bad += not fine
    for trial in range(18):  # whole-model level
        n = int(rng.integers(2, 4))
        grid = make_uniform_grid(-1, 1, int(rng.integers(2, 5)), 3)
        model = new_kafcm(n, grid, bounding=("smooth_clip", "tanh", "identity")[trial % 3], seed=trial)
        data = Dataset(rng.uniform(-1, 1, (6, n)), rng.uniform(0, 1, (6, n)))
        lam = 0.0 if trial % 2 else 0.01
        grads = model_gradient(model, data, lam)

        def model_loss(model=model, data=data, lam=lam):
            return loss_total(model, predict_one_step(model, data), data.targets, lam)

        i, j, e = next(iter(model.present_edges()))
        fine = close(
            grads.d_w_base[i, j],
            central_diff(model_loss, lambda e=e: e.w_base, lambda v, e=e: setattr(e, "w_base", v)),
        )
        k = int(rng.integers(grid.basis_count))

        def put_alpha(v, e=e, k=k):
            e.alpha[k] = v

        fine &= close(grads.d_alpha[i, j, k], central_diff(model_loss, lambda e=e, k=k: e.alpha[k], put_alpha))
        checked += 1
        bad += not fine
    for trial in range(15):  # MLP level
        n_in = int(rng.integers(1, 3))
        params = mlp_init(n_in, 1, seed=trial)
        data = Dataset(rng.uniform(-1, 1, (6, n_in)), rng.uniform(-0.8, 0.8, (6, 1)))
        grads = mlp_gradient(params, data)

        def mlp_loss():
            out = mlp_forward(params, data.inputs)
            return float(np.mean(np.sum((out - data.targets) ** 2, axis=1)))

        fine = True
        for arr, g in zip(params.arrays(), grads.arrays()):
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            k = int(rng.integers(flat.size))

            def put(v, flat=flat, k=k):
                flat[k] = v

            fine &= close(gflat[k], central_diff(mlp_loss, lambda flat=flat, k=k: flat[k], put), floor=1e-9)
        checked += 1
        bad += not fine
    return checked, bad


def _check_fcm_reduction(rng) -> float:
    worst = 0.0
    for bounding in ("smooth_clip", "tanh"):
        grid = make_uniform_grid(-1, 1, 6, 3)
        n = 4
        W = rng.uniform(-1, 1, (n, n))
        fcm = StandardFCM(W, activation=bounding)
        model = KAFCMModel(n, grid, np.ones((n, n), dtype=bool), bounding, base="identity")
        model.w_base[:] = W
        for _ in range(50):
            state = rng.uniform(-1, 1, n)
            worst = max(worst, float(np.abs(kafcm_step(model, state) - fcm_step(fcm, state)).max()))
    return worst


def _check_pipeline_determinism(tmp_path) -> list:
    small = {
        "yerkes": {"n": 100, "noise_sd": 0.05},
        "sine": {"n": 100},
        "mackey": {"lag": 4, "total_steps": 140, "washout": 20},
    }
    artifacts = ("data.csv", "data.json", "model_kafcm.json", "history_kafcm.csv", "metrics_kafcm.json")
    diffs = []
    for experiment, dataset in small.items():
        cfg_path = tmp_path / f"{experiment}.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "experiment": experiment,
                    "grid_size": 3,
                    "train": {"learning_rate": 0.1, "epochs": 40, "lam": 0.0, "seed": 0},
                    "dataset": dataset,
                    "seed": 0,
                }
            )
        )
        outs = [str(tmp_path / f"{experiment}_{tag}") for tag in ("a", "b")]
        for out in outs:
            for cmd in ("generate", "train", "evaluate"):
                code = main([cmd, "--config", str(cfg_path), "--out", out])
                if code != 0:
                    diffs.append(f"{experiment}:{cmd} exited {code}")
        for name in artifacts:
            a = (tmp_path / f"{experiment}_a" / name).read_bytes()
            b = (tmp_path / f"{experiment}_b" / name).read_bytes()
            if a != b:
                diffs.append(f"{experiment}:{name} differs")
    return diffs


def test_criterion_5_property_suite(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    failures = []

    pu = _check_partition_of_unity(rng)
    if pu > 1e-9:
        failures.append(f"partition of unity off by {pu:.1e}")

    checked, bad = _check_gradients(rng)
    if checked < 50 or bad:
        failures.append(f"gradients: {bad}/{checked} instances disagree with finite differences")

    red = _check_fcm_reduction(rng)
    if red > 1e-12:
        failures.append(f"standard-FCM reduction off by {red:.1e}")

    series = gen_mackey_glass(MackeyGlassParams(x0=1.0, washout=0, total_steps=40))
    drift = float(np.abs(series[:18] - 1.0).max())
    if drift > 1e-9:
        failures.append(f"constant-history fixed point drifts {drift:.1e}")

    x_min = float(minimize_scalar(silu, bounds=(-3, 0), method="bounded", options={"xatol": 1e-10}).x)
    if abs(x_min + 1.2785) > 1e-3:
        failures.append(f"silu minimum at {x_min:.5f}")

    model = new_kafcm(2, make_uniform_grid(-1, 1, 4, 3), seed=5)
    data = Dataset(rng.uniform(-1, 1, (7, 2)), rng.uniform(0, 1, (7, 2)))
    pred = predict_one_step(model, data)
    lam = 0.37
    l1 = sum(np.abs(e.alpha).sum() for _, _, e in model.present_edges())
    if loss_total(model, pred, data.targets, lam) != loss_rec(pred, data.targets) + lam * l1:
        failures.append("loss_total additivity not exact")

    failures.extend(_check_pipeline_determinism(tmp_path))

    elapsed = time.perf_counter() - t0
    if elapsed > 30:
        failures.append(f"suite took {elapsed:.1f}s")
    detail = (
        f"unity {pu:.1e} (<=1e-9), {checked} gradient instances ok (>=50), "
        f"reduction {red:.1e} (<=1e-12), fixed-point drift {drift:.1e} (<=1e-9), "
        f"silu min {x_min:.5f} (-1.2785+-1e-3), additivity exact, "
        f"3 pipelines byte-identical, {elapsed:.1f}s (budget 30s)"
    )
    report(5, not failures, detail if not failures else "; ".join(failures))


def test_criterion_6_scaling_benchmark():
    res = scaling_benchmark()
    times = ", ".join(f"N={n}: {t * 1e6:.0f}us" for n, t in zip(res["sizes"], res["mean_step_seconds"]))
    report(
        6,
        True,
        f"fitted step-time exponent {res['fitted_exponent']:.2f} ({times}); "
        "claim for manual comparison: asymptotic complexity remains quadratic "
        "(reported, not asserted)",
    )
