"""Fixed-size probes run in every traced run, whatever the workload.

Shape probes time single layers at stated sizes, untraced: `simulate` per
step and per call at N in {8, 32, 128, 256}, `basis_matrix` at the step shape
(32 points) and at one mackey training column, and `model_gradient` at N=32.
The layer tour calls every traced public function once at a tiny size (a
yerkes CLI pipeline with a short PSO, a 4-cell grid search, a 10-step
`simulate` on a 4-node map and a short MLP fit). It runs under its own
tracer, and a per-layer metric is taken from it only when the workload's
traced pass never calls that function.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time

import numpy as np

from kafcm import baselines, cli_harness, cognitive_graph, datagen, spline_core, training

from workloads import DenseMap, digest_tree, run_cli

# N -> steps of the long call; the steps must cost well over the per-call
# packing, or step_us is the difference of two noisy call times
SIM_STEPS = {8: 400, 32: 400, 128: 200, 256: 120}
REPEATS = 5
STEP_GRID = (-1.0, 1.0, DenseMap.G, DenseMap.P)
MACKEY_GRID = (0.0, 1.5, 19, 3)  # the mackey experiment's spline domain and size
TOUR_CONFIG = {
    "experiment": "yerkes",
    "dataset": {"n": 80, "noise_sd": 0.05},
    "grid_size": 4,
    "train": {"learning_rate": 0.1, "epochs": 30},
    "pso": {"swarm_size": 10, "iterations": 20},
    "space": {"grid_sizes": [4], "learning_rates": [0.01, 0.1], "epoch_values": [20, 40]},
}


def _median_seconds(fn, repeats=REPEATS, inner=1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def _dense_model(n, seed):
    grid = spline_core.make_uniform_grid(*STEP_GRID)
    mask = np.ones((n, n), dtype=bool)
    return cognitive_graph.new_kafcm(n, grid, mask=mask, bounding="tanh", seed=seed)


def probe_basis(seed):
    grid = spline_core.make_uniform_grid(*STEP_GRID)
    xs = np.random.default_rng(seed).uniform(-1.0, 1.0, 32)
    step = _median_seconds(lambda: spline_core.basis_matrix(grid, xs), inner=50)
    cfg = cli_harness.canonical_config("mackey", seed=seed)
    train, _, _ = cli_harness.split_for(cfg, cli_harness.build_dataset(cfg))
    column = train.inputs[:, 0]
    mackey_grid = spline_core.make_uniform_grid(*MACKEY_GRID)
    col = _median_seconds(lambda: spline_core.basis_matrix(mackey_grid, column), inner=10)
    return {
        "spline_core.basis_matrix.step_us": 1e6 * step,
        "spline_core.basis_matrix.column_us": 1e6 * col,
    }


def probe_simulate(seed):
    rng = np.random.default_rng(seed)
    m = {}
    for n, steps in SIM_STEPS.items():
        model = _dense_model(n, seed)
        c0 = rng.uniform(-1.0, 1.0, n)
        cognitive_graph.simulate(model, c0, 1)
        one = _median_seconds(lambda: cognitive_graph.simulate(model, c0, 1))
        long = _median_seconds(lambda: cognitive_graph.simulate(model, c0, steps + 1))
        step = (long - one) / steps
        m[f"cognitive_graph.simulate.step_us.N{n}"] = 1e6 * step
        if n == 32:
            m["cognitive_graph.simulate.call_overhead_us.N32"] = 1e6 * (one - step)
    return m


def probe_gradient(seed):
    n = 32
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (200, n))
    batch = datagen.Dataset(x, np.tanh(x[:, ::-1]))
    model = _dense_model(n, seed)
    secs = _median_seconds(lambda: training.model_gradient(model, batch))
    return {"training.model_gradient.ms.N32": 1e3 * secs}


def layer_tour(seed, tmp):
    """Call every traced function once at a tiny size.

    Returns (bytes written, failures, missing names).
    """
    try:
        return (*_tour(seed, tmp), [])
    except AttributeError as err:  # a public name the tour uses is gone
        return 0, [], [f"layer_tour: {err}"]
    except Exception as err:
        return 0, [f"layer_tour: {err!r}"], []


def _tour(seed, tmp):
    tour_dir = tempfile.mkdtemp(prefix="tour-", dir=tmp)
    out = os.path.join(tour_dir, "out")
    failures = []
    for kind in ("kafcm", "fcm"):
        path = os.path.join(tour_dir, f"{kind}.json")
        with open(path, "w") as fh:
            json.dump(dict(TOUR_CONFIG, model=kind, out=out), fh)
        commands = ["train", "evaluate"]
        if kind == "kafcm":
            commands = ["generate", *commands, "extract", "gridsearch"]
        for command in commands:
            rc, _ = run_cli([command, "--config", path, "--seed", str(seed)])
            if rc != 0:
                failures.append(f"layer tour: kafcm {command} ({kind}) exited with {rc}")
    rng = np.random.default_rng(seed)
    cognitive_graph.simulate(_dense_model(4, seed), rng.uniform(-1.0, 1.0, 4), 10)
    x = rng.uniform(-1.0, 1.0, 64)
    params = baselines.mlp_init(1, 1, seed=seed)
    baselines.mlp_train(params, datagen.Dataset(x, x * x), training.TrainConfig(learning_rate=0.05, epochs=50))
    _, written = digest_tree(tour_dir)
    return written, failures


SHAPE_PROBES = (probe_basis, probe_simulate, probe_gradient)
OPS = len(SHAPE_PROBES) + 1  # each shape probe, and the layer tour


def shape_probes(seed):
    """All shape probes; returns (metrics, failures, missing names)."""
    metrics, failures, missing = {}, [], []
    for probe in SHAPE_PROBES:
        try:
            metrics.update(probe(seed))
        except AttributeError as err:  # a public name this probe uses is gone
            missing.append(f"{probe.__name__}: {err}")
        except Exception as err:
            failures.append(f"{probe.__name__}: {err!r}")
    return metrics, failures, missing
