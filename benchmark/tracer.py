"""Span tracing around calls into the kafcm modules, installed from outside.

The tracer replaces selected public functions with timing wrappers at every
module attribute that holds them (for example both `training.train_gd` and
`cli_harness.train_gd`), so calls made inside the package are seen as well as
calls made by the benchmark. Spans stay in memory as (name, start, end,
parent, thread, count) and are written out once the run ends. No private
name is wrapped; a public name that no longer exists is listed as missing.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

PACKAGE = "kafcm"


def _history_len(result, args, kwargs):
    return len(result[1])


def _simulate_steps(result, args, kwargs):
    return len(result.states) - 1


def _pso_fitness_calls(result, args, kwargs):
    # pso_train_fcm scores the initial swarm once, then once per iteration
    config = args[2] if len(args) > 2 else kwargs["config"]
    return config.swarm_size * (len(result[1]) + 1)


# (module, public function, span name, count extractor)
TARGETS = (
    ("spline_core", "basis_matrix", "spline_core.basis_matrix", None),
    ("edge_functions", "edge_eval", "edge_functions.edge_eval", None),
    ("cognitive_graph", "simulate", "cognitive_graph.simulate", _simulate_steps),
    ("cognitive_graph", "new_kafcm", "cognitive_graph.new_kafcm", None),
    ("training", "train_gd", "training.train_gd", _history_len),
    ("training", "predict_one_step", "training.predict_one_step", None),
    ("training", "model_gradient", "training.model_gradient", None),
    ("training", "pso_train_fcm", "training.pso_train_fcm", _pso_fitness_calls),
    ("training", "grid_search", "training.grid_search", None),
    ("baselines", "mlp_train", "baselines.mlp_train", _history_len),
    # build_dataset lives in cli_harness; its work is datagen's generators
    ("cli_harness", "build_dataset", "datagen.build_dataset", None),
    ("datagen", "save_dataset", "datagen.save_dataset", None),
    ("datagen", "load_dataset", "datagen.load_dataset", None),
    ("symbolic", "fit_candidates", "symbolic.fit_candidates", None),
    ("metrics_eval", "compute_metrics", "metrics_eval.compute_metrics", None),
    ("cli_harness", "save_model", "cli_harness.save_model", None),
    ("cli_harness", "load_model", "cli_harness.load_model", None),
)
CLI_COMMANDS = ("generate", "train", "evaluate", "extract", "gridsearch")
CELL_SPAN = "training.grid_search.cell"


class Tracer:
    """Collects spans from wrapped kafcm functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, thread id, count]
        self.missing = []
        self._lock = threading.Lock()
        self._stacks = {}  # thread id -> indices of open spans
        self._main = threading.get_ident()
        self._patched = []  # (module, attribute, original)

    # ------------------------------------------------------------ spans

    def _open(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span belongs to whatever the
                # submitting (main) thread has open, e.g. grid_search
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tid, 0])
            stack.append(idx)
        return idx

    def _close(self, idx, count=0):
        end = time.perf_counter()
        with self._lock:
            span = self.spans[idx]
            span[2] = end
            span[5] = count
            self._stacks[span[4]].pop()

    def _wrap(self, fn, name, count_of=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    count = count_of(result, args, kwargs)
                return result
            finally:
                tracer._close(idx, count)

        return traced

    def _wrap_main(self, fn):
        tracer = self

        def traced_main(argv=None):
            command = argv[0] if argv and argv[0] in CLI_COMMANDS else "other"
            idx = tracer._open(f"cli_harness.{command}")
            try:
                return fn(argv)
            finally:
                tracer._close(idx)

        return traced_main

    def _wrap_task_factory(self, fn):
        tracer = self

        def traced_factory(*args, **kwargs):
            return tracer._wrap(fn(*args, **kwargs), CELL_SPAN)

        return traced_factory

    # ------------------------------------------------------------ install

    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _replace(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _lookup(self, module, name):
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            return getattr(mod, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{name}")
            return None

    def install(self):
        for module, name, span, count_of in TARGETS:
            fn = self._lookup(module, name)
            if fn is not None:
                self._replace(fn, self._wrap(fn, span, count_of))
        fn = self._lookup("cli_harness", "main")
        if fn is not None:
            self._replace(fn, self._wrap_main(fn))
        fn = self._lookup("cli_harness", "make_grid_task")
        if fn is not None:
            self._replace(fn, self._wrap_task_factory(fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def write(self, path, extra):
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "thread": t, "count": c}
            for n, s, e, p, t, c in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


# ---------------------------------------------------------------- analysis


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, total and self seconds, and summed counts.

    Self time is a span's duration minus the part of it that its child spans
    cover; children running in parallel threads are merged, not added.
    """
    children = {}
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(idx)
    out = {}
    for idx, (name, start, end, _, _, count) in enumerate(spans):
        if end is None:
            continue
        kids = [(spans[k][1], spans[k][2]) for k in children.get(idx, ()) if spans[k][2] is not None]
        dur = end - start
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - _covered(kids, start, end)
        agg["count"] += count
    return out


def layer_metrics(spans, bytes_written, tour_spans, tour_bytes):
    """The span-derived per-layer metrics, by benchmark metric name.

    A function the workload never calls would read 0 on every run; its
    figures come from the layer tour's spans instead, so that every timer is
    seen working. Returns (metrics, span names taken from the tour).
    """
    s = summarize(spans)
    tour = summarize(tour_spans)
    from_tour = sorted(set(tour) - set(s))
    s.update((name, tour[name]) for name in from_tour)
    if not bytes_written:
        bytes_written = tour_bytes
        from_tour.append("cli_harness.bytes_written")

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def per(name, key, unit_scale, per_key):
        denom = get(name, per_key)
        return get(name, key) * unit_scale / denom if denom else 0.0

    m = {
        "spline_core.basis_matrix.calls": get("spline_core.basis_matrix", "calls"),
        "spline_core.basis_matrix.self_ms": 1e3 * get("spline_core.basis_matrix", "self_s"),
        "edge_functions.edge_eval.self_ms": 1e3 * get("edge_functions.edge_eval", "self_s"),
        "cognitive_graph.simulate.calls": get("cognitive_graph.simulate", "calls"),
        "cognitive_graph.simulate.steps": get("cognitive_graph.simulate", "count"),
        "cognitive_graph.new_kafcm.self_ms": 1e3 * get("cognitive_graph.new_kafcm", "self_s"),
        "training.train_gd.calls": get("training.train_gd", "calls"),
        "training.train_gd.epochs": get("training.train_gd", "count"),
        "training.train_gd.epoch_ms": per("training.train_gd", "total_s", 1e3, "count"),
        "training.predict_one_step.self_ms": 1e3 * get("training.predict_one_step", "self_s"),
        "training.pso_train_fcm.fitness_calls": get("training.pso_train_fcm", "count"),
        "training.pso_train_fcm.fitness_us": per("training.pso_train_fcm", "total_s", 1e6, "count"),
        "training.grid_search.cell_ms": per(CELL_SPAN, "total_s", 1e3, "calls"),
        "training.grid_search.overhead_ms": 1e3 * get("training.grid_search", "self_s"),
        "baselines.mlp_train.epochs": get("baselines.mlp_train", "count"),
        "baselines.mlp_train.epoch_ms": per("baselines.mlp_train", "total_s", 1e3, "count"),
        "datagen.build_dataset.self_ms": 1e3 * get("datagen.build_dataset", "self_s"),
        "datagen.save_dataset.self_ms": 1e3 * get("datagen.save_dataset", "self_s"),
        "datagen.load_dataset.self_ms": 1e3 * get("datagen.load_dataset", "self_s"),
        "symbolic.fit_candidates.self_ms": 1e3 * get("symbolic.fit_candidates", "self_s"),
        "metrics_eval.compute_metrics.self_ms": 1e3 * get("metrics_eval.compute_metrics", "self_s"),
        "cli_harness.save_model.self_ms": 1e3 * get("cli_harness.save_model", "self_s"),
        "cli_harness.load_model.self_ms": 1e3 * get("cli_harness.load_model", "self_s"),
        "cli_harness.bytes_written": bytes_written,
    }
    for command in CLI_COMMANDS:
        m[f"cli_harness.{command}.ms"] = 1e3 * get(f"cli_harness.{command}", "total_s")
    return m, from_tour
