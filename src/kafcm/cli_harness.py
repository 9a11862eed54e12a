"""Experiment pipelines and the `kafcm` command-line interface.

Subcommands: generate, train, evaluate, gridsearch, extract. Each takes
--config <path> plus optional --out <dir> and --seed <int> overrides. Exit
codes: 0 success, 2 config or data error, 3 divergence, 4 I/O error.

A config plus the code version determines every output byte: datasets,
models, histories, and reports all serialize with full round-trip precision
and sorted keys, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict, astuple, dataclass, field, fields, replace
import json
import math
from operator import attrgetter
import os
import sys
from typing import Callable

import numpy as np

from .atomic_io import csv_line, write_csv, write_json
from .baselines import LAYER_NAMES, MLPParams, default_mlp_config, mlp_forward, mlp_init, mlp_train
from .cognitive_graph import (
    BOUNDING_KINDS,
    DivergenceError,
    KAFCMModel,
    StandardFCM,
    new_kafcm,
)
from .datagen import (
    SPLIT_FRACTIONS,
    Dataset,
    MackeyGlassParams,
    gen_mackey,
    gen_sine,
    gen_yerkes,
    load_dataset,
    save_dataset,
    split_dataset,
    yerkes_law,
)
from .metrics_eval import MetricsReport, compute_metrics, save_metrics_json, upsert_comparison_row
from .spline_core import make_uniform_grid
from .symbolic import MIN_CURVE_POINTS, curve_to_csv, fit_candidates, fits_to_json, sample_edge
from .training import (
    GridSearchSpace,
    PSOConfig,
    TrainConfig,
    grid_search,
    load_grid_rows,
    loss_rec,
    predict_one_step,
    pso_train_fcm,
    save_grid_csv,
    save_grid_summary,
    train_gd,
)

__all__ = [
    "ConfigError",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "canonical_config",
    "load_config",
    "save_model",
    "load_model",
    "build_dataset",
    "split_for",
    "model_view",
    "build_model",
    "fit_model",
    "predict",
    "run_pipeline",
    "main",
]

MODEL_FILE_VERSION = 2
MODEL_KINDS = ("kafcm", "fcm", "mlp")
FCM_ENCODINGS = ("raw", "unit")


@dataclass(frozen=True)
class Experiment:
    """What sets one experiment apart; EXPERIMENTS holds one per experiment."""

    n_in: int  # input nodes, followed by n_out output nodes
    n_out: int
    domain: tuple[float, float]  # the KA-FCM spline domain
    fcm_encoding: str  # the standard FCM's default input encoding
    dataset: dict  # the dataset defaults, built by generate(**dataset, seed=seed)
    generate: Callable[..., Dataset]
    dataset_types: dict  # the generator's annotations, typing the dataset keys (any but seed and return)
    canonical: tuple[int, float, int]  # the best published (grid_size, learning_rate, epochs)
    chronological: bool = False  # split in time order rather than shuffled
    targets: Callable[[Dataset], np.ndarray] = attrgetter("targets")  # what predictions are scored against


EXPERIMENTS = {
    "yerkes": Experiment(
        n_in=1, n_out=1, domain=(-1.0, 1.0), fcm_encoding="raw", dataset={"n": 400, "noise_sd": 0.05},
        generate=gen_yerkes, dataset_types=gen_yerkes.__annotations__, canonical=(4, 0.1, 610),
        targets=lambda data: yerkes_law(data.inputs),  # the noise-free law
    ),
    "sine": Experiment(
        n_in=1, n_out=1, domain=(-1.0, 1.0), fcm_encoding="unit", dataset={"n": 400, "frequency": 3.0},
        generate=gen_sine, dataset_types=gen_sine.__annotations__, canonical=(19, 0.1, 1500),
    ),
    "mackey": Experiment(
        n_in=4, n_out=1, domain=(0.0, 1.5), fcm_encoding="raw", dataset={"lag": 4}, generate=gen_mackey,
        dataset_types={**gen_mackey.__annotations__, **{f.name: f.type for f in fields(MackeyGlassParams)}},
        canonical=(19, 0.05, 1277), chronological=True,
    ),
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    model: str = "kafcm"
    bounding: str = "identity"
    grid_size: int = 4
    degree: int = 3
    train: TrainConfig = field(default_factory=TrainConfig)
    pso: PSOConfig | None = None  # None derives the swarm seed from `seed`
    dataset: dict = field(default_factory=dict)
    fcm_encoding: str | None = None
    out: str = ""
    seed: int = 0
    data_path: str | None = None
    space: GridSearchSpace | None = None
    edge: tuple[int, int] | None = None
    table: str | None = None
    curve_points: int = 200

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENTS)}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}; expected one of {MODEL_KINDS}")
        if self.bounding not in BOUNDING_KINDS:
            raise ConfigError(f"unknown bounding {self.bounding!r}; expected one of {BOUNDING_KINDS}")
        if self.grid_size < 1:
            raise ConfigError(f"grid_size must be at least 1, got {self.grid_size}")
        if self.degree < 0:
            raise ConfigError(f"degree must be non-negative, got {self.degree}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.curve_points < MIN_CURVE_POINTS:
            raise ConfigError(f"curve_points must be at least {MIN_CURVE_POINTS}, got {self.curve_points}")
        if self.fcm_encoding is None:
            self.fcm_encoding = self.spec.fcm_encoding
        if self.fcm_encoding not in FCM_ENCODINGS:
            raise ConfigError(f"unknown fcm_encoding {self.fcm_encoding!r}")
        self.dataset = {**self.spec.dataset, **self.dataset}
        types = self.spec.dataset_types
        unknown = set(self.dataset) - (set(types) - {"seed", "return"})
        if unknown:
            raise ConfigError(f"unknown dataset keys: {sorted(unknown)}")
        for key, value in self.dataset.items():
            if types.get(key) in _JSON_TYPES and not _is_a(types[key], value):
                raise ConfigError(f"dataset: {key} must be of type {types[key]}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"dataset: {key} must be finite, got {value}")
        if not self.out:
            self.out = os.path.join("runs", self.experiment)
        if self.edge is not None:
            if not (
                isinstance(self.edge, (list, tuple))
                and len(self.edge) == 2
                and all(_is_a("int", v) for v in self.edge)
            ):
                raise ConfigError(f"edge must be a pair of integers, got {self.edge!r}")
            self.edge = tuple(self.edge)

    @property
    def spec(self) -> Experiment:
        return EXPERIMENTS[self.experiment]

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if "edge" in d:
            d["edge"] = list(d["edge"])
        if "pso" in d:
            d["pso"]["weight_bounds"] = list(d["pso"]["weight_bounds"])
        return d


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
# config keys whose JSON objects become these dataclasses
_NESTED_CONFIGS = {"train": TrainConfig, "pso": PSOConfig, "space": GridSearchSpace}
# the JSON values a config field annotated with one of these names may
# hold; a bool is none of them
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict}


def _is_a(type_name: str, value) -> bool:
    return isinstance(value, _JSON_TYPES[type_name]) and not isinstance(value, bool)


def _check_types(cls, raw) -> None:
    """ConfigError naming the first key of the JSON object raw whose field
    of cls is annotated with a name in _JSON_TYPES, a list of one
    (`list[int]`) or a tuple of them (`tuple[int, int]`, a JSON list of that
    length), and holds another kind of value; a field annotated
    `... | None` may also hold null."""
    if not isinstance(raw, dict):
        raise ConfigError(f"must be a JSON object, got {raw!r}")
    for f in fields(cls):
        value = raw.get(f.name)
        annotation = f.type.removesuffix(" | None")
        if f.name not in raw or (value is None and annotation != f.type):
            continue
        kind, _, args = annotation.removesuffix("]").partition("[")
        if kind == "list" and args in _JSON_TYPES:
            ok = isinstance(value, list) and all(_is_a(args, v) for v in value)
        elif kind == "tuple" and args:
            items = args.split(", ")
            ok = isinstance(value, list) and len(value) == len(items) and all(map(_is_a, items, value))
        elif kind in _JSON_TYPES:
            ok = _is_a(kind, value)
        else:
            continue
        if not ok:
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("config is missing the 'experiment' key")
    _check_types(ExperimentConfig, raw)
    kwargs = dict(raw)
    for key, cls in _NESTED_CONFIGS.items():
        if key in kwargs:
            try:
                _check_types(cls, kwargs[key])
                kwargs[key] = cls(**kwargs[key])
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{key}: {err}") from err
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return config_from_dict(raw)


def canonical_config(experiment: str, model: str = "kafcm", seed: int = 0) -> ExperimentConfig:
    """The best published hyperparameters for an experiment."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    grid_size, learning_rate, epochs = EXPERIMENTS[experiment].canonical
    return ExperimentConfig(
        experiment=experiment,
        model=model,
        grid_size=grid_size,
        train=TrainConfig(learning_rate=learning_rate, epochs=epochs, seed=seed),
        seed=seed,
    )


# ---------------------------------------------------------------- model files

_GRID_KEYS = ("domain_lo", "domain_hi", "grid_size", "degree")
_EDGE_KEYS = ("i", "j", "w_base", "w_spline", "alpha")


def save_model(model, path) -> None:
    """Serialize a KAFCMModel (its grid and base once, then one record per
    present edge), StandardFCM, or MLPParams as versioned JSON."""
    if isinstance(model, KAFCMModel):
        rows, cols = np.nonzero(model.mask)
        columns = (rows.tolist(), cols.tolist(), *(c[rows, cols].tolist() for c in model.views(model.theta)))
        fields = {
            "kind": "kafcm",
            "n_nodes": model.n_nodes,
            "bounding": model.bounding,
            "base": model.base,
            "grid": {k: getattr(model.grid, k) for k in _GRID_KEYS},
            "edges": [dict(zip(_EDGE_KEYS, values)) for values in zip(*columns)],
        }
    elif isinstance(model, StandardFCM):
        fields = {"kind": "fcm", "activation": model.activation, "weights": model.weights.tolist()}
    elif isinstance(model, MLPParams):
        fields = {"kind": "mlp", **{k: getattr(model, k).tolist() for k in LAYER_NAMES}}
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    write_json({"version": MODEL_FILE_VERSION, **fields}, path)


def _require(record, keys, where: str) -> dict:
    """record itself, after checking it is an object holding every key."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be a JSON object")
    missing = [k for k in keys if k not in record]
    if missing:
        raise ValueError(f"{where} is missing keys {missing}")
    return record


def _finite(values, where: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where} is not numeric: {err}") from err
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} holds non-finite values")
    return arr


def load_model(path):
    """Read a model file written by save_model.

    Each edge record of a kafcm file is written straight into a model on
    the file's one grid and base. Raises ValueError for another version or
    kind, a missing key, a value of the wrong JSON type, an unknown bounding
    or base, a grid make_uniform_grid rejects, an edge index out of range,
    two records of one edge, a non-finite parameter, or an alpha length that
    does not match the grid.
    """
    with open(path) as fh:
        payload = _require(json.load(fh), (), f"model file {path}")
    version = payload.get("version")
    if version != MODEL_FILE_VERSION:
        raise ValueError(f"unsupported model file version: {version!r}")
    kind = payload.get("kind")
    if kind == "kafcm":
        _require(payload, ("n_nodes", "bounding", "base", "grid", "edges"), "kafcm model")
        n = payload["n_nodes"]
        if not _is_a("int", n) or n < 1:
            raise ValueError(f"n_nodes must be a positive integer, got {n!r}")
        g = _require(payload["grid"], _GRID_KEYS, "kafcm model grid")
        lo, hi = _finite([g["domain_lo"], g["domain_hi"]], "kafcm model grid domain")
        if not (_is_a("int", g["grid_size"]) and _is_a("int", g["degree"])):
            raise ValueError("kafcm model grid_size and degree must be integers")
        grid = make_uniform_grid(lo, hi, g["grid_size"], g["degree"])
        model = KAFCMModel(n, grid, np.zeros((n, n), dtype=bool), payload["bounding"], payload["base"])
        w_base, w_spline, alpha = model.views(model.theta)
        if not isinstance(payload["edges"], list):
            raise ValueError(f"kafcm model edges must be a JSON list, got {payload['edges']!r}")
        for idx, rec in enumerate(payload["edges"]):
            where = f"edge {idx}"
            _require(rec, _EDGE_KEYS, where)
            i, j = rec["i"], rec["j"]
            if not all(_is_a("int", v) and 0 <= v < n for v in (i, j)):
                raise ValueError(f"{where} index ({i!r}, {j!r}) out of range for {n} nodes")
            if model.mask[i, j]:
                first = next(k for k, r in enumerate(payload["edges"]) if (r["i"], r["j"]) == (i, j))
                raise ValueError(f"edge records {first} and {idx} both describe edge ({i}, {j})")
            values = _finite(rec["alpha"], f"{where} alpha")
            if values.shape != (model.K,):
                raise ValueError(f"{where} alpha length {values.shape} does not match basis count {model.K}")
            weights = _finite([rec["w_base"], rec["w_spline"]], f"{where} weights")
            if weights.shape != (2,):
                raise ValueError(f"{where} weights must be numbers, got {weights.tolist()}")
            w_base[i, j], w_spline[i, j] = weights
            alpha[i, j] = values
            model.mask[i, j] = True
        return model
    if kind == "fcm":
        _require(payload, ("weights", "activation"), "fcm model")
        return StandardFCM(
            weights=_finite(payload["weights"], "fcm weights"), activation=payload["activation"]
        )
    if kind == "mlp":
        _require(payload, LAYER_NAMES, "mlp model")
        return MLPParams(**{k: _finite(payload[k], f"mlp {k}") for k in LAYER_NAMES})
    raise ValueError(f"unknown model kind: {kind!r}")


# ---------------------------------------------------------------- pipelines


def build_dataset(config: ExperimentConfig) -> Dataset:
    """The full (unsplit) dataset for an experiment, from its generator."""
    try:
        data = config.spec.generate(**config.dataset, seed=config.seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"dataset: {err}") from err
    return _checked_shape(config, data, "generated dataset")


def _checked_shape(config: ExperimentConfig, data: Dataset, where: str) -> Dataset:
    """data itself, if its input and target widths are the experiment's map's."""
    d_in, d_out = config.spec.n_in, config.spec.n_out
    if data.inputs.shape[1] != d_in or data.targets.shape[1] != d_out:
        raise ConfigError(
            f"{where} has shape {data.inputs.shape[1]}-in/{data.targets.shape[1]}-out; "
            f"experiment {config.experiment!r} needs {d_in}-in/{d_out}-out"
        )
    return data


def split_for(config: ExperimentConfig, data: Dataset):
    """64/16/20 split; chronological if the experiment says so, else shuffled."""
    return split_dataset(data, SPLIT_FRACTIONS, shuffle=not config.spec.chronological, seed=config.seed)


def model_view(config: ExperimentConfig, data: Dataset) -> Dataset:
    """The dataset as the configured model consumes it.

    The standard FCM reads unit-interval activations; for the sine task its
    inputs are mapped from [-1, 1] onto [0, 1]. Targets are never encoded:
    all models are scored in the original output units.
    """
    if config.model == "fcm" and config.fcm_encoding == "unit":
        return Dataset((data.inputs + 1.0) / 2.0, data.targets, dict(data.metadata))
    return data


def build_model(config: ExperimentConfig):
    n_in, n_out = config.spec.n_in, config.spec.n_out
    n = n_in + n_out
    if config.model == "kafcm":
        grid = make_uniform_grid(*config.spec.domain, config.grid_size, config.degree)
        mask = np.zeros((n, n), dtype=bool)
        mask[n_in:, :n_in] = True
        return new_kafcm(n, grid, mask=mask, bounding=config.bounding, seed=config.seed)
    if config.model == "fcm":
        return StandardFCM(weights=np.zeros((n, n)), activation="tanh")
    return mlp_init(n_in, n_out, seed=config.seed)


def fit_model(config: ExperimentConfig, model, train_data: Dataset):
    """Dispatch to the right trainer; returns (model, loss history)."""
    view = model_view(config, train_data)
    if config.model == "kafcm":
        return train_gd(model, view, config.train)
    if config.model == "fcm":
        pso = config.pso if config.pso is not None else PSOConfig(seed=config.seed)
        return pso_train_fcm(model, view, pso)
    return mlp_train(model, view, default_mlp_config())


def predict(config: ExperimentConfig, model, data: Dataset) -> np.ndarray:
    view = model_view(config, data)
    if isinstance(model, MLPParams):
        return mlp_forward(model, view.inputs)
    return predict_one_step(model, view)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    train_data: Dataset
    val_data: Dataset
    test_data: Dataset
    model: object
    history: np.ndarray
    metrics: MetricsReport


def run_pipeline(config: ExperimentConfig, splits=None) -> ExperimentResult:
    """Generate (or reuse) data, train the configured model, score the test set."""
    if splits is None:
        train_data, val_data, test_data = split_for(config, build_dataset(config))
    else:
        train_data, val_data, test_data = splits
    model = build_model(config)
    model, history = fit_model(config, model, train_data)
    preds = predict(config, model, test_data)
    metrics = compute_metrics(preds, config.spec.targets(test_data))
    return ExperimentResult(config, train_data, val_data, test_data, model, history, metrics)


def make_grid_task(config: ExperimentConfig):
    """Grid-search cell runner: train the config's KA-FCM with grid size G and
    the cell's training settings (seeded from them), return validation error."""

    def task(G, train_config, splits):
        train_data, val_data, _ = splits
        cell = replace(config, model="kafcm", grid_size=G, seed=train_config.seed, train=train_config)
        model, _ = fit_model(cell, build_model(cell), train_data)
        return loss_rec(predict(cell, model, val_data), val_data.targets)

    return task


# ---------------------------------------------------------------- commands


def _dataset_path(config: ExperimentConfig) -> str:
    return config.data_path or os.path.join(config.out, "data.csv")


def _load_dataset_checked(config: ExperimentConfig) -> Dataset:
    path = _dataset_path(config)
    return _checked_shape(config, load_dataset(path), f"dataset at {path}")


def _model_path(config: ExperimentConfig) -> str:
    return os.path.join(config.out, f"model_{config.model}.json")


def save_history_csv(history, path) -> None:
    # Python floats: csv_line writes the same bytes for them as for np.float64s, with less work a field
    write_csv(path, ("epoch", "loss"), enumerate(np.asarray(history).tolist()))


def cmd_generate(config: ExperimentConfig) -> int:
    data = build_dataset(config)
    os.makedirs(config.out, exist_ok=True)
    path = _dataset_path(config)
    save_dataset(data, path)
    print(f"wrote {path} ({len(data)} rows)")
    return 0


def cmd_train(config: ExperimentConfig) -> int:
    data = _load_dataset_checked(config)
    train_data, _, _ = split_for(config, data)
    model = build_model(config)
    os.makedirs(config.out, exist_ok=True)
    history_path = os.path.join(config.out, f"history_{config.model}.csv")
    try:
        model, history = fit_model(config, model, train_data)
    except DivergenceError as err:
        partial = getattr(err, "history", None)
        if partial is not None:
            save_history_csv(partial, history_path)
        raise
    model_path = _model_path(config)
    save_model(model, model_path)
    save_history_csv(history, history_path)
    print(f"wrote {model_path} (final loss {history[-1]:.3e})")
    return 0


def cmd_evaluate(config: ExperimentConfig) -> int:
    model = load_model(_model_path(config))
    data = _load_dataset_checked(config)
    _, _, test_data = split_for(config, data)
    preds = predict(config, model, test_data)
    report = compute_metrics(preds, config.spec.targets(test_data))
    os.makedirs(config.out, exist_ok=True)
    metrics_path = os.path.join(config.out, f"metrics_{config.model}.json")
    save_metrics_json(
        report, metrics_path, model_id=config.model, dataset_id=config.experiment
    )
    table_path = config.table or os.path.join(config.out, "comparison.csv")
    upsert_comparison_row(table_path, config.model, report)
    print(f"wrote {metrics_path} (mse {report.mse:.3e})")
    return 0


def cmd_gridsearch(config: ExperimentConfig) -> int:
    space = config.space or GridSearchSpace()
    data = build_dataset(config)
    splits = split_for(config, data)
    os.makedirs(config.out, exist_ok=True)
    grid_path = os.path.join(config.out, "grid.csv")
    # resume only the rows of a run of this config and seed, as grid_run.json records it
    run_path = os.path.join(config.out, "grid_run.json")
    run = {k: v for k, v in config.to_dict().items() if k != "out"}
    resume = os.path.exists(grid_path) and os.path.exists(run_path)
    if resume:
        with open(run_path) as fh:
            resume = json.load(fh) == run
    done = load_grid_rows(grid_path) if resume else []
    # rewrite what survives (dropping a torn last row), then append each
    # finished cell so an interrupted run leaves its rows to resume from
    save_grid_csv(done, grid_path)
    write_json(run, run_path)
    task = make_grid_task(config)
    with open(grid_path, "a") as fh:

        def append(row):
            fh.write(csv_line(astuple(row)))
            fh.flush()

        report = grid_search(
            space,
            splits,
            task,
            base_seed=config.seed,
            completed={(r.G, r.eta, r.epochs): r for r in done},
            on_row=append,
        )
    save_grid_csv(report.rows, grid_path)  # canonical cell order
    summary_path = os.path.join(config.out, "grid_summary.json")
    save_grid_summary(report, summary_path)
    best = report.best
    print(
        f"wrote {grid_path} ({len(report.rows)} rows); best G={best['G']} "
        f"eta={best['learning_rate']} epochs={best['epochs']} val={best['val_error']:.3e}"
    )
    return 0


def cmd_extract(config: ExperimentConfig) -> int:
    model = load_model(_model_path(config))
    if not isinstance(model, KAFCMModel):
        raise ConfigError("extract requires a kafcm model file")
    i, j = config.edge if config.edge is not None else (config.spec.n_in, 0)
    if not (0 <= i < model.n_nodes and 0 <= j < model.n_nodes and model.mask[i, j]):
        raise ConfigError(f"edge ({i}, {j}) is masked or out of range")
    curve = sample_edge(model.edges[i][j], config.curve_points, edge_id=(i, j))
    fits = fit_candidates(curve)
    os.makedirs(config.out, exist_ok=True)
    curve_path = os.path.join(config.out, f"edge_{i}_{j}_curve.csv")
    fits_path = os.path.join(config.out, f"edge_{i}_{j}_fits.json")
    curve_to_csv(curve, curve_path)
    fits_to_json(fits, fits_path)
    top = fits[0]
    coeffs = ", ".join(f"{float(v):.6g}" for v in top.coefficients)
    print(f"wrote {fits_path}; top fit {top.form} [{coeffs}] r2={top.r_squared:.6f}")
    return 0


# subcommand name -> (help text, handler)
COMMANDS = {
    "generate": ("write the experiment dataset as CSV plus metadata", cmd_generate),
    "train": ("train the configured model on the generated dataset", cmd_train),
    "evaluate": ("score a trained model on the test split", cmd_evaluate),
    "gridsearch": ("sweep grid size, learning rate, and epochs", cmd_gridsearch),
    "extract": ("sample a learned edge and fit closed forms to it", cmd_extract),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kafcm",
        description="Train and analyze fuzzy cognitive maps with learnable spline edges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, _) in COMMANDS.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", type=int, help="override every derived seed")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.out:
            config.out = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            config.seed = args.seed
            config.train.seed = args.seed
            if config.pso is not None:
                config.pso.seed = args.seed
        return COMMANDS[args.command][1](config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
