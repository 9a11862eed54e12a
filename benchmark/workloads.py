"""The benchmark workloads: reproduce and dense_map.

Each is a closed loop driven from one process by one client: the next
operation starts only after the previous one returns. The benchmark reaches
the program only through public entry points: `cli_harness.main` and the
public functions of each module, always looked up as module attributes so
that a traced run sees the calls.

A workload has `setup()` (timed as set-up), `run_pass(index)` (one pass of
timed operations, returning a `PassResult`), and `check_run(passes)` for
checks that span passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from kafcm import cli_harness, cognitive_graph, datagen, spline_core, training

EXPERIMENTS = (("yerkes", "experiment1.json"), ("sine", "experiment2.json"), ("mackey", "experiment3.json"))
MODEL_KINDS = ("kafcm", "fcm", "mlp")


@dataclass
class PassResult:
    """One pass: seconds per timed operation, op groups, and failures.

    Every timed op is in group "wall"; workloads add "kafcm" (ops that run a
    KA-FCM model), "fit" (ops that run its training) and per-stage groups.
    Op ids are the same in every pass, so runs can combine them per op.
    """

    times: dict = field(default_factory=dict)  # op id -> seconds
    groups: dict = field(default_factory=dict)  # group -> op ids
    fit_epochs: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)  # relative path -> sha256
    bytes_written: int = 0

    def time(self, op, secs, *groups):
        """Record one sample of op; an op timed again keeps its fastest."""
        if op in self.times:
            self.times[op] = min(self.times[op], secs)
            return
        self.times[op] = secs
        for group in ("wall", *groups):
            self.groups.setdefault(group, []).append(op)

    @property
    def wall_s(self):
        return sum(self.times.values())

    def fail(self, message: str) -> None:
        self.failures.append(message)


def run_cli(argv):
    """Run one `kafcm` command in-process; returns (exit code, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_harness.main(list(argv))
    except SystemExit as err:
        rc = err.code if isinstance(err.code, int) else 1
    except Exception:  # an uncaught error is a failed op, not a crashed run
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - t0


def digest_tree(root):
    """sha256 of every file under root, plus the total size in bytes."""
    digests, total = {}, 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            digests[os.path.relpath(path, root)] = hashlib.sha256(blob).hexdigest()
            total += len(blob)
    return digests, total


class Workload:
    min_passes = 1
    reruns = 0  # a workload with reruns has rerun(pass_result)

    def __init__(self, root, seed, tmp):
        self.root = root
        self.seed = seed
        self.tmp = tmp

    def check_run(self, passes):
        """Checks that compare passes; none by default."""


class Reproduce(Workload):
    """The README recipe for all three experiments and model kinds: 24 commands.

    After the recipe, a pass reruns every command but the baselines'
    training `reruns` times in the same directory, and a timed run spends
    the time a further pass would overrun on more such reruns. The short
    commands so get enough samples for their fastest time to be steady; the
    baseline trainings are most of a pass and are sampled once per pass.
    Artifacts are compared across passes as the recipe left them, before
    the reruns: `evaluate` appends a row to `comparison.csv` on every run.
    """

    name = "reproduce"
    min_passes = 2  # artifacts are compared between two fresh directories
    reruns = 3
    NOT_RERUN = {("train", "fcm"), ("train", "mlp")}
    STEPS = (
        [("generate", "kafcm")]
        + [(cmd, kind) for kind in MODEL_KINDS for cmd in ("train", "evaluate")]
        + [("extract", "kafcm")]
    )

    def setup(self):
        cfg_dir = tempfile.mkdtemp(prefix="setup-", dir=self.tmp)
        self.configs = {}
        for exp, fname in EXPERIMENTS:
            with open(os.path.join(self.root, "configs", fname)) as fh:
                raw = json.load(fh)
            for kind in MODEL_KINDS:
                path = os.path.join(cfg_dir, f"{exp}_{kind}.json")
                with open(path, "w") as fh:
                    json.dump(dict(raw, model=kind, out=os.path.join(cfg_dir, "out")), fh)
                self.configs[exp, kind] = path
        rc, _ = self.cli("generate", "yerkes", "kafcm", os.path.join(cfg_dir, "warmup"))
        if rc != 0:
            raise RuntimeError(f"warm-up generate exited with {rc}")

    def cli(self, command, exp, kind, out):
        return run_cli([command, "--config", self.configs[exp, kind], "--out", out, "--seed", str(self.seed)])

    def run_pass(self, index):
        res = PassResult()
        pass_dir = tempfile.mkdtemp(prefix=f"pass{index}-", dir=self.tmp)
        for exp, _ in EXPERIMENTS:
            out = os.path.join(pass_dir, exp)
            self._run_steps(exp, out, self.STEPS, res)
            res.fit_epochs += self._history_rows(out)
            self._check_criteria(exp, out, res)
        res.artifacts, res.bytes_written = digest_tree(pass_dir)
        self.pass_dir = pass_dir
        for _ in range(self.reruns):
            self.rerun(res)
        return res

    def rerun(self, res):
        """Rerun the last pass's short commands in its directory, into res."""
        for exp, _ in EXPERIMENTS:
            steps = [s for s in self.STEPS if s not in self.NOT_RERUN]
            self._run_steps(exp, os.path.join(self.pass_dir, exp), steps, res)

    def _run_steps(self, exp, out, steps, res):
        for command, kind in steps:
            rc, secs = self.cli(command, exp, kind, out)
            res.attempted += 1
            groups = (kind,) if command in ("train", "evaluate") else ()
            if (command, kind) == ("train", "kafcm"):
                groups += ("fit",)
            res.time(f"{exp}/{command}/{kind}", secs, *groups)
            if rc != 0:
                res.fail(f"{exp}: kafcm {command} ({kind}) exited with {rc}")

    def stages(self, sums):
        return {"fcm_s": sums.get("fcm", 0.0), "mlp_s": sums.get("mlp", 0.0)}

    @staticmethod
    def _history_rows(out):
        try:
            with open(os.path.join(out, "history_kafcm.csv")) as fh:
                return sum(1 for _ in fh) - 1
        except OSError:
            return 0

    @staticmethod
    def _check_criteria(exp, out, res):
        """Acceptance criteria 1-3, read back from the written reports."""
        try:
            m = {}
            for kind in MODEL_KINDS:
                with open(os.path.join(out, f"metrics_{kind}.json")) as fh:
                    m[kind] = json.load(fh)
            ka, fcm, mlp = m["kafcm"], m["fcm"], m["mlp"]
            if exp == "yerkes":
                ok = (
                    ka["mse"] <= 1e-3
                    and mlp["mse"] <= 1e-3
                    and fcm["mse"] >= 0.3
                    and fcm["mse"] >= 100 * ka["mse"]
                )
            elif exp == "sine":
                with open(os.path.join(out, "edge_1_0_fits.json")) as fh:
                    top = json.load(fh)[0]
                freq = abs(top["coefficients"][1]) if top["form"] == "sinusoid" else math.nan
                ok = (
                    ka["mse"] <= 1e-5
                    and ka["mse"] <= mlp["mse"] / 10
                    and fcm["mse"] >= 0.3
                    and 2.95 <= freq <= 3.05
                    and top["r_squared"] >= 0.999
                )
            else:
                ok = ka["mape_percent"] <= 20 and all(
                    ka[key] < mlp[key] < fcm[key] for key in ("mape_percent", "max_abs_error", "std_dev_error")
                )
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            res.fail(f"{exp}: reports unreadable ({err!r})")
            return
        if not ok:
            res.fail(f"{exp}: acceptance thresholds not met: {m}")

    def check_run(self, passes):
        """Every artifact is byte-identical to the first pass's."""
        first = passes[0].artifacts
        for res in passes[1:]:
            differ = sorted(p for p in set(first) | set(res.artifacts) if first.get(p) != res.artifacts.get(p))
            if differ:
                res.fail(f"artifacts differ from the first pass: {differ}")


class DenseMap(Workload):
    """Fit a dense 32-node tanh KA-FCM, then a what-if sweep and a long rollout."""

    name = "dense_map"
    N = 32  # nodes: 1024 edges
    ROWS = 400
    G, P = 8, 3
    # Fit, sweep and rollout each take about a third of wall_s. Each is short
    # (about 0.2 s), so a run repeats it often enough for its fastest time
    # to be steady on a shared machine.
    EPOCHS = 10
    LEARNING_RATE = 0.01
    SWEEP_STATES = 64
    SWEEP_STEPS = 20
    ROLLOUT_STEPS = 2000
    CHECK_ROWS = 4
    TOL = 1e-12

    def setup(self):
        rng = np.random.default_rng(self.seed)
        n = self.N
        # full-state one-step law: next = tanh(A x + C sin(pi x)) with dense A, C
        a = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n))
        c = rng.normal(0.0, 1.0 / math.sqrt(n), (n, n))
        x = rng.uniform(-1.0, 1.0, (self.ROWS, n))
        y = np.tanh(x @ a.T + np.sin(np.pi * x) @ c.T)
        self.data = datagen.Dataset(x, y, {"generator": "benchmark.dense_map", "seed": self.seed})
        self.sweep_c0 = rng.uniform(-1.0, 1.0, (self.SWEEP_STATES, n))
        self.rollout_c0 = rng.uniform(-1.0, 1.0, n)
        self.grid = spline_core.make_uniform_grid(-1.0, 1.0, self.G, self.P)
        model = self.new_model()
        cognitive_graph.simulate(model, self.rollout_c0, 1)
        training.predict_one_step(model, datagen.Dataset(x[:2], y[:2]))

    def new_model(self):
        mask = np.ones((self.N, self.N), dtype=bool)
        return cognitive_graph.new_kafcm(self.N, self.grid, mask=mask, bounding="tanh", seed=self.seed)

    def run_pass(self, index):
        res = PassResult()
        model = self.new_model()
        config = training.TrainConfig(learning_rate=self.LEARNING_RATE, epochs=self.EPOCHS, seed=self.seed)

        res.attempted += 1
        t0 = time.perf_counter()
        try:
            model, history = training.train_gd(model, self.data, config)
        except Exception as err:  # DivergenceError or an API break: the fit failed
            res.fail(f"fit: {err!r}")
            return res
        res.time("fit", time.perf_counter() - t0, "kafcm", "fit")
        res.fit_epochs = len(history)
        if not (np.isfinite(history).all() and history[-1] < history[0]):
            res.fail(f"fit: loss not finite and falling ({history[0]!r} -> {history[-1]!r})")

        sweep = np.full((self.SWEEP_STATES, self.SWEEP_STEPS + 1, self.N), np.nan)
        for b in range(self.SWEEP_STATES):
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                sweep[b] = cognitive_graph.simulate(model, self.sweep_c0[b], self.SWEEP_STEPS).states
            except Exception as err:
                res.fail(f"sweep state {b}: {err!r}")
            res.time(f"sweep/{b}", time.perf_counter() - t0, "kafcm", "sweep")

        res.attempted += 1
        t0 = time.perf_counter()
        try:
            rollout = cognitive_graph.simulate(model, self.rollout_c0, self.ROLLOUT_STEPS).states
        except Exception as err:
            res.fail(f"rollout: {err!r}")
            rollout = np.full((1, self.N), np.nan)
        res.time("rollout", time.perf_counter() - t0, "kafcm", "rollout")

        self._check_states(sweep, rollout, res)
        self._check_step_matches_prediction(model, res)
        return res

    def stages(self, sums):
        return {
            "sweep_states_per_s": self.SWEEP_STATES / sums["sweep"],
            "rollout_steps_per_s": self.ROLLOUT_STEPS / sums["rollout"],
        }

    @staticmethod
    def _check_states(sweep, rollout, res):
        for label, states in (("sweep", sweep), ("rollout", rollout)):
            bad = ~(np.isfinite(states) & (np.abs(states) <= 1.0))
            if bad.any():
                res.fail(f"{label}: {int(bad.sum())} state values non-finite or outside [-1, 1]")

    def _check_step_matches_prediction(self, model, res):
        """One simulate step from a data row equals predict_one_step on it."""
        rows = datagen.Dataset(self.data.inputs[: self.CHECK_ROWS], self.data.targets[: self.CHECK_ROWS])
        try:
            predicted = training.predict_one_step(model, rows)
            stepped = np.array([cognitive_graph.simulate(model, row, 1).states[1] for row in rows.inputs])
        except Exception as err:
            res.fail(f"step check: {err!r}")
            return
        gap = float(np.max(np.abs(stepped - predicted)))
        if not gap <= self.TOL:
            res.fail(f"simulate step differs from predict_one_step by {gap:.3e} (> {self.TOL:.0e})")


WORKLOADS = {w.name: w for w in (Reproduce, DenseMap)}
