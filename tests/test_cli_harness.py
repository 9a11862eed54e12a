"""Tests for config handling, model files, pipelines, and the CLI."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kafcm.baselines import MLPParams, mlp_forward, mlp_init
from kafcm.cli_harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    build_dataset,
    build_model,
    canonical_config,
    config_from_dict,
    load_config,
    load_model,
    main,
    model_view,
    run_pipeline,
    save_model,
    split_for,
)
import kafcm.cli_harness as cli_harness
from kafcm.cognitive_graph import DivergenceError, KAFCMModel, StandardFCM, new_kafcm, simulate
from kafcm.datagen import yerkes_law
from kafcm.spline_core import make_uniform_grid
from kafcm.training import GridSearchSpace, PSOConfig, TrainConfig, loss_rec, predict_one_step, train_gd


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "experiment": "yerkes",
        "model": "kafcm",
        "grid_size": 3,
        "train": {"learning_rate": 0.1, "epochs": 25, "lam": 0.0, "seed": 0},
        "dataset": {"n": 80, "noise_sd": 0.05},
        "out": str(tmp_path / "out"),
        "seed": 0,
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


SMALL_MACKEY = {"lag": 4, "total_steps": 140, "washout": 20}


# model-file corruption -> the ValueError message load_model must raise
MALFORMED_KAFCM = {
    "missing-edges": (lambda p: p.pop("edges"), r"missing keys \['edges'\]"),
    "zero-nodes": (lambda p: p.update(n_nodes=0), "n_nodes must be a positive integer, got 0"),
    "text-nodes": (lambda p: p.update(n_nodes="2"), "n_nodes must be a positive integer, got '2'"),
    "missing-grid-key": (lambda p: p["grid"].pop("degree"), r"kafcm model grid is missing keys \['degree'\]"),
    "text-grid-size": (lambda p: p["grid"].update(grid_size="4"), "kafcm model grid_size and degree"),
    "index-too-large": (lambda p: p["edges"][1].update(i=2), r"edge 1 index \(2, 0\) out of range"),
    "negative-index": (lambda p: p["edges"][0].update(j=-1), "out of range"),
    "short-alpha": (lambda p: p["edges"][0]["alpha"].pop(), r"alpha length \(6,\) does not match"),
    "nan-weight": (lambda p: p["edges"][1].update(w_spline=float("nan")), "edge 1 weights holds non-finite"),
    "text-in-alpha": (lambda p: p["edges"][0]["alpha"].__setitem__(2, "x"), "edge 0 alpha is not numeric"),
    "duplicate-edge": (
        lambda p: p["edges"].append(dict(p["edges"][0], w_base=42.0)),
        r"edge records 0 and 2 both describe edge \(0, 1\)",
    ),
    "number-edges": (lambda p: p.update(edges=5), "kafcm model edges must be a JSON list, got 5"),
    "null-edges": (lambda p: p.update(edges=None), "kafcm model edges must be a JSON list, got None"),
    "bool-nodes": (lambda p: p.update(n_nodes=True), "n_nodes must be a positive integer, got True"),
    "bool-index": (lambda p: p["edges"][0].update(i=True, j=False), r"edge 0 index \(True, False\) out of range"),
    "bool-grid-size": (lambda p: p["grid"].update(grid_size=True), "kafcm model grid_size and degree"),
    "bool-degree": (lambda p: p["grid"].update(degree=True), "kafcm model grid_size and degree"),
    "missing-base": (lambda p: p.pop("base"), r"missing keys \['base'\]"),
    "unknown-base": (lambda p: p.update(base="relu"), "unknown base kind: 'relu'"),
    "missing-grid": (lambda p: p.pop("grid"), r"missing keys \['grid'\]"),
    "list-grid": (lambda p: p.update(grid=[-1.0, 1.0, 4, 3]), "kafcm model grid must be a JSON object"),
}


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = config_from_dict({"experiment": "sine"})
        assert cfg.model == "kafcm"
        assert cfg.grid_size == 4
        assert cfg.fcm_encoding == "unit"
        assert cfg.dataset == {"n": 400, "frequency": 3.0}
        assert cfg.out == "runs/sine"

    def test_encoding_defaults_per_experiment(self):
        assert config_from_dict({"experiment": "yerkes"}).fcm_encoding == "raw"
        assert config_from_dict({"experiment": "mackey"}).fcm_encoding == "raw"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"experiment": "sine", "grid_sze": 4})

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            config_from_dict({"model": "kafcm"})

    def test_invalid_values(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "parabola"})
        assert str(err.value) == "unknown experiment 'parabola'; expected one of ('yerkes', 'sine', 'mackey')"
        with pytest.raises(ConfigError, match="unknown model"):
            config_from_dict({"experiment": "sine", "model": "gru"})
        with pytest.raises(ConfigError, match="grid_size"):
            config_from_dict({"experiment": "sine", "grid_size": 0})
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_dict({"experiment": "sine", "train": {"learning_rate": -1}})

    def test_round_trip_through_dict(self):
        cfg = canonical_config("mackey")
        again = config_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_round_trip_keeps_curve_points(self):
        cfg = config_from_dict({"experiment": "sine", "curve_points": 37, "edge": [1, 0]})
        again = config_from_dict(cfg.to_dict())
        assert again.curve_points == 37
        assert again == cfg

    def test_every_field_round_trips_through_json(self):
        raw = {
            "experiment": "mackey",
            "model": "fcm",
            "bounding": "tanh",
            "grid_size": 7,
            "degree": 2,
            "train": {"learning_rate": 0.05, "epochs": 30, "lam": 0.01, "seed": 9},
            "pso": {"swarm_size": 6, "iterations": 8, "inertia": 0.5, "cognitive": 1.2,
                    "social": 1.3, "weight_bounds": [-2.0, 2.0], "seed": 4},
            "dataset": {"lag": 3, "total_steps": 300, "washout": 50},
            "fcm_encoding": "unit",
            "out": "somewhere",
            "seed": 11,
            "data_path": "elsewhere/data.csv",
            "space": {"grid_sizes": [3, 5], "learning_rates": [0.1], "epoch_values": [10, 20]},
            "edge": [4, 2],
            "table": "table.csv",
            "curve_points": 33,
        }
        cfg = config_from_dict(raw)
        assert set(raw) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert cfg.pso == PSOConfig(**raw["pso"]) and cfg.space == GridSearchSpace(**raw["space"])
        assert cfg.edge == (4, 2)
        d = cfg.to_dict()
        assert d == raw
        assert config_from_dict(json.loads(json.dumps(d))) == cfg

    def test_to_dict_leaves_out_unset_optional_fields(self):
        d = config_from_dict({"experiment": "sine"}).to_dict()
        assert not {"pso", "data_path", "space", "edge", "table"} & set(d)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_canonical_hyperparameters(self):
        y = canonical_config("yerkes")
        assert (y.grid_size, y.train.learning_rate, y.train.epochs) == (4, 0.1, 610)
        s = canonical_config("sine")
        assert (s.grid_size, s.train.learning_rate, s.train.epochs) == (19, 0.1, 1500)
        m = canonical_config("mackey")
        assert (m.grid_size, m.train.learning_rate, m.train.epochs) == (19, 0.05, 1277)

    def test_shipped_config_files_load(self):
        configs = [load_config(f"configs/{name}") for name in sorted(os.listdir("configs"))]
        for exp in EXPERIMENTS:
            # one shipped file per experiment: the canonical configuration, apart from where it writes
            (cfg,) = [c for c in configs if c.experiment == exp]
            got, want = cfg.to_dict(), canonical_config(exp).to_dict()
            assert {k: v for k, v in got.items() if k != "out"} == {k: v for k, v in want.items() if k != "out"}
        assert len(configs) == len(EXPERIMENTS)


class TestModelFiles:
    def test_kafcm_round_trip(self, tmp_path):
        grid = make_uniform_grid(-1, 1, 4, 3)
        mask = np.array([[False, True], [True, False]])
        model = new_kafcm(2, grid, mask=mask, bounding="tanh", seed=3)
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, KAFCMModel)
        assert back.bounding == "tanh"
        np.testing.assert_array_equal(back.mask, mask)
        for i, j, e in model.present_edges():
            b = back.edges[i][j]
            assert b.w_base == e.w_base and b.w_spline == e.w_spline
            np.testing.assert_array_equal(b.alpha, e.alpha)
            assert (b.grid.domain_lo, b.grid.domain_hi) == (e.grid.domain_lo, e.grid.domain_hi)
            assert (b.grid.grid_size, b.grid.degree) == (e.grid.grid_size, e.grid.degree)
            assert b.base == e.base

    def test_fcm_round_trip(self, tmp_path):
        model = StandardFCM(weights=np.array([[0.1, -0.2], [0.3, 0.4]]), activation="smooth_clip")
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, StandardFCM)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.activation == "smooth_clip"

    def test_mlp_round_trip(self, tmp_path):
        params = mlp_init(4, 1, seed=2)
        path = tmp_path / "m.json"
        save_model(params, path)
        back = load_model(path)
        assert isinstance(back, MLPParams)
        for a, b in zip(params.arrays(), back.arrays()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(0).uniform(-1, 1, (5, 4))
        np.testing.assert_array_equal(mlp_forward(params, x), mlp_forward(back, x))

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = new_kafcm(2, make_uniform_grid(-1, 1, 3, 2), seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(StandardFCM(weights=np.zeros((2, 2)), activation="tanh"), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": cli_harness.MODEL_FILE_VERSION, "kind": "transformer"}))
        with pytest.raises(ValueError, match="kind"):
            load_model(path)

    def test_reloaded_mackey_model_matches_memory(self, tmp_path):
        cfg = config_from_dict(
            {"experiment": "mackey", "grid_size": 5, "dataset": SMALL_MACKEY, "train": {"epochs": 30}}
        )
        result = run_pipeline(cfg)
        path = tmp_path / "m.json"
        save_model(result.model, path)
        back = load_model(path)
        assert len({id(e.grid) for _, _, e in back.present_edges()}) == 1  # one grid per file
        np.testing.assert_array_equal(
            predict_one_step(back, result.test_data), predict_one_step(result.model, result.test_data)
        )
        c0 = np.append(result.test_data.inputs[0], 0.0)
        np.testing.assert_array_equal(simulate(back, c0, 10).states, simulate(result.model, c0, 10).states)

    @pytest.mark.parametrize("case", list(MALFORMED_KAFCM))
    def test_malformed_kafcm_file_rejected(self, tmp_path, case):
        corrupt, message = MALFORMED_KAFCM[case]
        path = tmp_path / "m.json"
        mask = np.array([[False, True], [True, False]])
        save_model(new_kafcm(2, make_uniform_grid(-1, 1, 4, 3), mask=mask, seed=3), path)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_malformed_fcm_and_mlp_files_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(StandardFCM(weights=np.zeros((2, 2)), activation="tanh"), path)
        payload = json.loads(path.read_text())
        payload["weights"][0][1] = float("inf")
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="fcm weights holds non-finite"):
            load_model(path)
        save_model(mlp_init(2, 1, seed=0), path)
        payload = json.loads(path.read_text())
        del payload["b3"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"missing keys \['b3'\]"):
            load_model(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_model(path)

    def test_malformed_model_file_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        path = tmp_path / "out" / "model_kafcm.json"
        payload = json.loads(path.read_text())
        del payload["edges"]
        path.write_text(json.dumps(payload))
        assert main(["evaluate", "--config", cfg]) == 2
        assert main(["extract", "--config", cfg]) == 2

    def test_edgeless_map_round_trip_keeps_grid_base_and_theta(self, tmp_path):
        grid = make_uniform_grid(-1, 1, 4, 3)
        model = KAFCMModel(3, grid, np.zeros((3, 3), dtype=bool), "tanh", "identity")
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert back.grid == grid and back.K == 7 and back.base == "identity" and back.bounding == "tanh"
        assert back.theta.shape == (81,) and not back.mask.any()
        np.testing.assert_array_equal(back.theta, model.theta)

    def test_version_1_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        path = tmp_path / "out" / "model_kafcm.json"
        payload = json.loads(path.read_text())
        # the version 1 layout: the grid and base in every edge record
        shared = {"grid": payload.pop("grid"), "base": payload.pop("base")}
        payload["version"] = 1
        payload["edges"] = [dict(e, **shared) for e in payload["edges"]]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: unsupported model file version: 1\n"


class TestPipelinePieces:
    def test_dataset_shapes(self):
        y = build_dataset(config_from_dict({"experiment": "yerkes", "dataset": {"n": 50}}))
        assert y.inputs.shape == (50, 1) and y.targets.shape == (50, 1)
        m = build_dataset(config_from_dict({"experiment": "mackey", "dataset": SMALL_MACKEY}))
        assert m.inputs.shape == (116, 4) and m.targets.shape == (116, 1)

    def test_mackey_split_chronological(self):
        cfg = config_from_dict({"experiment": "mackey", "dataset": SMALL_MACKEY})
        data = build_dataset(cfg)
        train, val, test = split_for(cfg, data)
        stitched = np.concatenate([train.inputs, val.inputs, test.inputs])
        np.testing.assert_array_equal(stitched, data.inputs)

    def test_yerkes_split_shuffled(self):
        cfg = config_from_dict({"experiment": "yerkes", "dataset": {"n": 50}})
        data = build_dataset(cfg)
        train, _, _ = split_for(cfg, data)
        assert not np.array_equal(train.inputs, data.inputs[: len(train)])

    def test_fcm_unit_encoding_only_for_sine(self):
        sine = config_from_dict({"experiment": "sine", "model": "fcm", "dataset": {"n": 40}})
        data = build_dataset(sine)
        view = model_view(sine, data)
        np.testing.assert_allclose(view.inputs, (data.inputs + 1) / 2)
        np.testing.assert_array_equal(view.targets, data.targets)
        raw = config_from_dict({"experiment": "yerkes", "model": "fcm", "dataset": {"n": 40}})
        rdata = build_dataset(raw)
        assert model_view(raw, rdata) is rdata

    def test_kafcm_topology(self):
        y = build_model(config_from_dict({"experiment": "yerkes"}))
        assert y.n_nodes == 2
        np.testing.assert_array_equal(y.mask, [[False, False], [True, False]])
        m = build_model(config_from_dict({"experiment": "mackey"}))
        assert m.n_nodes == 5
        expected = np.zeros((5, 5), dtype=bool)
        expected[4, :4] = True
        np.testing.assert_array_equal(m.mask, expected)
        lo = m.edges[4][0].grid.domain_lo
        hi = m.edges[4][0].grid.domain_hi
        assert (lo, hi) == (0.0, 1.5)

    def test_fcm_and_mlp_models(self):
        fcm = build_model(config_from_dict({"experiment": "sine", "model": "fcm"}))
        assert isinstance(fcm, StandardFCM) and fcm.activation == "tanh"
        np.testing.assert_array_equal(fcm.weights, np.zeros((2, 2)))
        mlp = build_model(config_from_dict({"experiment": "mackey", "model": "mlp"}))
        assert (mlp.n_in, mlp.n_out) == (4, 1)

    def test_targets_noise_free_for_yerkes(self):
        cfg = config_from_dict({"experiment": "yerkes", "dataset": {"n": 30}})
        data = build_dataset(cfg)
        np.testing.assert_array_equal(cfg.spec.targets(data), yerkes_law(data.inputs))
        scfg = config_from_dict({"experiment": "sine", "dataset": {"n": 30}})
        sdata = build_dataset(scfg)
        assert scfg.spec.targets(sdata) is sdata.targets

    def test_run_pipeline_smoke(self):
        cfg = config_from_dict(
            {
                "experiment": "yerkes",
                "grid_size": 4,
                "train": {"learning_rate": 0.1, "epochs": 120},
                "dataset": {"n": 120, "noise_sd": 0.0},
            }
        )
        res = run_pipeline(cfg)
        assert len(res.history) == 120
        assert res.metrics.mse < 0.05
        assert isinstance(res.model, KAFCMModel)


class TestCommands:
    def test_generate_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        data_csv = tmp_path / "out" / "data.csv"
        first = data_csv.read_bytes()
        first_meta = (tmp_path / "out" / "data.json").read_bytes()
        assert main(["generate", "--config", cfg]) == 0
        assert data_csv.read_bytes() == first
        assert (tmp_path / "out" / "data.json").read_bytes() == first_meta

    def test_generate_row_count(self, tmp_path):
        cfg = write_config(tmp_path, experiment="sine", dataset={"n": 100})
        assert main(["generate", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "data.csv").read_text().splitlines()
        assert len(lines) == 101
        assert lines[0] == "x_0,y_0"

    def test_generate_invalid_mackey_dt(self, tmp_path):
        cfg = write_config(
            tmp_path, experiment="mackey", dataset={"lag": 4, "dt": 0.3}
        )
        assert main(["generate", "--config", cfg]) == 2

    def test_train_requires_dataset(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg]) == 4

    def test_train_then_evaluate(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        model_file = tmp_path / "out" / "model_kafcm.json"
        assert model_file.exists()
        history = (tmp_path / "out" / "history_kafcm.csv").read_text().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) == 26
        assert main(["evaluate", "--config", cfg]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics_kafcm.json").read_text())
        assert set(metrics) >= {"mse", "mape_percent", "max_abs_error", "std_dev_error", "n"}
        table = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
        assert table[0].startswith("model,")
        assert table[1].startswith("kafcm,")

    def test_evaluate_rerun_leaves_comparison_identical(self, tmp_path):
        configs = {kind: write_config(tmp_path, name=f"{kind}.json", model=kind) for kind in ("fcm", "mlp", "kafcm")}
        assert main(["generate", "--config", configs["kafcm"]]) == 0
        assert main(["train", "--config", configs["kafcm"]]) == 0
        save_model(StandardFCM(weights=np.array([[0.0, 0.0], [0.5, 0.0]])), tmp_path / "out" / "model_fcm.json")
        save_model(mlp_init(1, 1, seed=0), tmp_path / "out" / "model_mlp.json")
        table = tmp_path / "out" / "comparison.csv"
        for kind in ("fcm", "mlp", "kafcm"):
            assert main(["evaluate", "--config", configs[kind]]) == 0
        first = table.read_bytes()
        for kind in ("kafcm", "fcm", "mlp", "kafcm"):
            assert main(["evaluate", "--config", configs[kind]]) == 0
        assert table.read_bytes() == first
        assert [line.split(",")[0] for line in first.decode().splitlines()] == ["model", "fcm", "mlp", "kafcm"]

    def test_train_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["generate", "--config", cfg])
        main(["train", "--config", cfg])
        model_file = tmp_path / "out" / "model_kafcm.json"
        first = model_file.read_bytes()
        main(["train", "--config", cfg])
        assert model_file.read_bytes() == first

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(config):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli_harness, "build_dataset", no_memory)
        cfg = write_config(tmp_path)
        capsys.readouterr()
        assert main(["generate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "out of memory: Unable to allocate 7.28 TiB\n"

    def test_train_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path, train={"learning_rate": 1e200, "epochs": 10, "lam": 0.0, "seed": 0}
        )
        main(["generate", "--config", cfg])
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", cfg]) == 3
        # partial history kept
        assert (tmp_path / "out" / "history_kafcm.csv").exists()

    def test_train_divergence_names_group_and_edge(self, tmp_path, capsys, monkeypatch):
        # a huge spline weight over zero coefficients and a base weight that
        # puts the fit far off its targets: finite loss, infinite d alpha
        real_build = cli_harness.build_model

        def exploding(config):
            model = real_build(config)
            model.w_base[1, 0] = 100.0
            model.w_spline[1, 0] = 1e308
            model.alpha[1, 0] = 0.0
            return model

        monkeypatch.setattr(cli_harness, "build_model", exploding)
        cfg = write_config(tmp_path)
        main(["generate", "--config", cfg])
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("divergence: non-finite gradient at epoch 0, alpha of edge (1, 0) at k = ")
        assert (tmp_path / "out" / "history_kafcm.csv").read_text().count("\n") == 2  # header and epoch 0

    @staticmethod
    def overflowing(build):
        """build_model with edge (1, 0) at w_spline 1e308 over zero alpha: on
        yerkes a finite d alpha near 1e308, whose square overflows Adam's v."""

        def build_model(config):
            model = build(config)
            model.w_spline[1, 0] = 1e308
            model.alpha[1, 0] = 0.0
            return model

        return build_model

    def test_adam_overflow_raises_instead_of_freezing(self, tmp_path):
        # v going infinite makes the entry's step 0 for good, which used to
        # freeze alpha silently for all 50 epochs
        config = load_config(write_config(tmp_path, train={"learning_rate": 0.1, "epochs": 50, "lam": 0.0}))
        model = self.overflowing(build_model)(config)
        theta = model.theta.copy()
        train, _, _ = split_for(config, build_dataset(config))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
            train_gd(model, model_view(config, train), config.train)
        assert str(info.value) == "gradient overflows the update at epoch 0, alpha of edge (1, 0) at k = 0"
        assert len(info.value.history) == 1 and np.isfinite(info.value.history).all()
        assert np.array_equal(model.theta.view(np.uint64), theta.view(np.uint64))

    def test_train_adam_overflow_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_harness, "build_model", self.overflowing(cli_harness.build_model))
        cfg = write_config(tmp_path, train={"learning_rate": 0.1, "epochs": 50, "lam": 0.0})
        main(["generate", "--config", cfg])
        capsys.readouterr()
        with np.errstate(over="ignore"):
            assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == "divergence: gradient overflows the update at epoch 0, alpha of edge (1, 0) at k = 0\n"
        assert (tmp_path / "out" / "history_kafcm.csv").read_text().count("\n") == 2  # header and epoch 0

    def test_train_mlp_divergence_names_the_layer(self, tmp_path, capsys, monkeypatch):
        # an infinite step: inf * 0 puts NaN into every layer, W1 first; the
        # rate is set past TrainConfig's check, which rejects inf
        def infinite_step_config(seed=0):
            config = TrainConfig(epochs=5)
            config.learning_rate = float("inf")
            return config

        monkeypatch.setattr(cli_harness, "default_mlp_config", infinite_step_config)
        cfg = write_config(tmp_path, model="mlp")
        main(["generate", "--config", cfg])
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", cfg]) == 3
        assert capsys.readouterr().err == "divergence: non-finite parameters after epoch 0, layer W1\n"
        assert (tmp_path / "out" / "history_mlp.csv").read_text().count("\n") == 2  # header and epoch 0
        assert not (tmp_path / "out" / "model_mlp.json").exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p["W2"].pop(),  # a (63, 64) W2
            lambda p: p.update(W1=0.5),  # a 0-d W1
            lambda p: p.update(W1=[0.5] * 64),  # a 1-d W1
            lambda p: p["b3"].append(0.0),  # two output biases for one output row
        ],
        ids=["W2-rows", "W1-0d", "W1-1d", "b3"],
    )
    def test_mis_shaped_mlp_model_file_exits_2(self, tmp_path, capsys, corrupt):
        cfg = write_config(tmp_path, model="mlp")
        assert main(["generate", "--config", cfg]) == 0
        path = tmp_path / "out" / "model_mlp.json"
        save_model(mlp_init(1, 1, seed=0), path)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shapes"):
            load_model(path)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        assert "parameter shapes do not form" in capsys.readouterr().err

    def test_evaluate_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["generate", "--config", cfg])
        main(["train", "--config", cfg])
        # point a 4-input mackey config at the 1-input yerkes artifacts
        bad = write_config(
            tmp_path,
            name="bad.json",
            experiment="mackey",
            dataset=SMALL_MACKEY,
            data_path=str(tmp_path / "out" / "data.csv"),
        )
        assert main(["evaluate", "--config", bad]) == 2

    def test_extract_after_train(self, tmp_path):
        cfg = write_config(
            tmp_path,
            experiment="sine",
            grid_size=8,
            train={"learning_rate": 0.1, "epochs": 300, "lam": 0.0, "seed": 0},
            dataset={"n": 150},
        )
        main(["generate", "--config", cfg])
        main(["train", "--config", cfg])
        assert main(["extract", "--config", cfg]) == 0
        curve = (tmp_path / "out" / "edge_1_0_curve.csv").read_text().splitlines()
        assert curve[0] == "x,phi"
        assert len(curve) == 201
        fits = json.loads((tmp_path / "out" / "edge_1_0_fits.json").read_text())
        assert {f["form"] for f in fits} == {"affine", "polynomial", "gaussian", "sinusoid"}

    def test_extract_masked_edge(self, tmp_path):
        cfg = write_config(tmp_path, edge=[0, 1])
        main(["generate", "--config", cfg])
        main(["train", "--config", cfg])
        assert main(["extract", "--config", cfg]) == 2

    def test_extract_wrong_model_kind(self, tmp_path):
        cfg = write_config(tmp_path, model="fcm")
        main(["generate", "--config", cfg])
        main(["train", "--config", cfg])
        assert main(["extract", "--config", cfg]) == 2

    def test_gridsearch_single_cell(self, tmp_path):
        cfg = write_config(
            tmp_path,
            experiment="sine",
            dataset={"n": 80},
            space={"grid_sizes": [3], "learning_rates": [0.05], "epoch_values": [30]},
        )
        assert main(["gridsearch", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "grid.csv").read_text().splitlines()
        assert rows[0] == "G,eta,epochs,val_error,status"
        assert len(rows) == 2
        summary = json.loads((tmp_path / "out" / "grid_summary.json").read_text())
        assert summary["best"]["G"] == 3

    @pytest.mark.parametrize("experiment", ["yerkes", "sine", "mackey"])
    @pytest.mark.parametrize("model", ["kafcm", "fcm", "mlp"])
    def test_grid_task_matches_explicit_cell(self, experiment, model):
        # the explicit KA-FCM cell a grid search trains, whatever the config's model kind
        dataset = {"yerkes": {"n": 60}, "sine": {"n": 60}, "mackey": SMALL_MACKEY}[experiment]
        cfg = config_from_dict({"experiment": experiment, "model": model, "bounding": "tanh", "dataset": dataset})
        splits = split_for(cfg, build_dataset(cfg))
        train_data, val_data, _ = splits
        spec = EXPERIMENTS[experiment]
        n_in, n_out = spec.n_in, spec.n_out
        n = n_in + n_out
        mask = np.zeros((n, n), dtype=bool)
        mask[n_in:, :n_in] = True
        G, train_config = 5, TrainConfig(learning_rate=0.05, epochs=15, seed=987654)
        grid = make_uniform_grid(*spec.domain, G, cfg.degree)
        ref = new_kafcm(n, grid, mask=mask, bounding=cfg.bounding, seed=train_config.seed)
        ref, _ = train_gd(ref, train_data, train_config)
        want = loss_rec(predict_one_step(ref, val_data), val_data.targets)
        got = cli_harness.make_grid_task(cfg)(G, train_config, splits)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
        assert cfg.model == model and cfg.grid_size == 4

    @pytest.mark.parametrize(
        "space, message",
        [
            ({"learning_rates": [0.1, math.nan]}, "learning_rates must all be positive and finite, got [0.1, nan]"),
            ({"grid_sizes": [4, 0]}, "grid_sizes must all be at least 1, got [4, 0]"),
            ({"epoch_values": [5, -1]}, "epoch_values must all be at least 1, got [5, -1]"),
        ],
        ids=["learning-rate-nan", "grid-size-zero", "epochs-negative"],
    )
    def test_gridsearch_checks_the_space_before_any_cell(self, tmp_path, capsys, space, message):
        full = {"grid_sizes": [3], "learning_rates": [0.05], "epoch_values": [5], **space}
        cfg = write_config(tmp_path, experiment="sine", dataset={"n": 80}, space=full)
        capsys.readouterr()
        assert main(["gridsearch", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: space: {message}\n"
        assert not (tmp_path / "out" / "grid.csv").exists()

    def test_gridsearch_jobs_is_an_argparse_error(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["gridsearch", "--config", cfg, "--jobs", "2"])
        assert exc.value.code == 2

    def test_gridsearch_resume_identical(self, tmp_path):
        space = {"grid_sizes": [3, 4], "learning_rates": [0.05], "epoch_values": [20, 40]}
        cfg = write_config(tmp_path, experiment="sine", dataset={"n": 80}, space=space)
        assert main(["gridsearch", "--config", cfg]) == 0
        grid_file = tmp_path / "out" / "grid.csv"
        uninterrupted = grid_file.read_bytes()
        # simulate an interrupted run: keep only the first two completed rows
        lines = uninterrupted.decode().splitlines()
        grid_file.write_text("\n".join(lines[:3]) + "\n")
        assert main(["gridsearch", "--config", cfg]) == 0
        assert grid_file.read_bytes() == uninterrupted

    def test_gridsearch_resumes_after_interrupt(self, tmp_path, monkeypatch):
        space = {"grid_sizes": [3, 4], "learning_rates": [0.05], "epoch_values": [20, 40]}
        ref = write_config(tmp_path, name="ref.json", experiment="sine", dataset={"n": 80},
                           space=space, out=str(tmp_path / "ref"))
        assert main(["gridsearch", "--config", ref]) == 0
        uninterrupted = (tmp_path / "ref" / "grid.csv").read_bytes()

        cfg = write_config(tmp_path, experiment="sine", dataset={"n": 80}, space=space)
        real_train = cli_harness.train_gd
        trained = []

        def interrupted_on_third(model, data, config):
            if len(trained) == 2:
                raise KeyboardInterrupt
            trained.append(model.edges[1][0].grid.grid_size)
            return real_train(model, data, config)

        monkeypatch.setattr(cli_harness, "train_gd", interrupted_on_third)
        with pytest.raises(KeyboardInterrupt):
            main(["gridsearch", "--config", cfg])
        grid_file = tmp_path / "out" / "grid.csv"
        assert grid_file.read_bytes().splitlines() == uninterrupted.splitlines()[:3]

        def counted(model, data, config):
            trained.append(model.edges[1][0].grid.grid_size)
            return real_train(model, data, config)

        monkeypatch.setattr(cli_harness, "train_gd", counted)
        assert main(["gridsearch", "--config", cfg]) == 0
        assert trained == [3, 3, 4, 4]  # the rerun trained only the two missing cells
        assert grid_file.read_bytes() == uninterrupted
        assert sorted(p.name for p in grid_file.parent.iterdir()) == ["grid.csv", "grid_run.json", "grid_summary.json"]

    def test_gridsearch_resumes_only_its_own_config_and_seed(self, tmp_path):
        space = {"grid_sizes": [3], "learning_rates": [0.05], "epoch_values": [20, 40]}
        cfg = write_config(tmp_path, dataset={"n": 60, "noise_sd": 0.05}, space=space)
        fresh = tmp_path / "fresh"
        assert main(["gridsearch", "--config", cfg, "--out", str(fresh), "--seed", "7"]) == 0
        out = tmp_path / "out"
        assert main(["gridsearch", "--config", cfg]) == 0
        seed0 = (out / "grid.csv").read_bytes()
        assert seed0 != (fresh / "grid.csv").read_bytes()
        assert main(["gridsearch", "--config", cfg, "--seed", "7"]) == 0  # into seed 0's rows
        for name in ("grid.csv", "grid_run.json", "grid_summary.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        # another config (here one more data point) does not reuse seed 7's rows either
        other = write_config(tmp_path, name="other.json", dataset={"n": 61, "noise_sd": 0.05}, space=space)
        ref = tmp_path / "ref"
        assert main(["gridsearch", "--config", other, "--out", str(ref), "--seed", "7"]) == 0
        assert main(["gridsearch", "--config", other, "--seed", "7"]) == 0
        assert (out / "grid.csv").read_bytes() == (ref / "grid.csv").read_bytes() != (fresh / "grid.csv").read_bytes()

    def test_gridsearch_drops_torn_last_row(self, tmp_path):
        space = {"grid_sizes": [3, 4], "learning_rates": [0.05], "epoch_values": [20]}
        cfg = write_config(tmp_path, experiment="sine", dataset={"n": 80}, space=space)
        assert main(["gridsearch", "--config", cfg]) == 0
        grid_file = tmp_path / "out" / "grid.csv"
        uninterrupted = grid_file.read_bytes()
        lines = uninterrupted.decode().splitlines()
        grid_file.write_text("\n".join(lines[:2]) + "\n" + lines[2][:9])  # killed mid-append
        assert main(["gridsearch", "--config", cfg]) == 0
        assert grid_file.read_bytes() == uninterrupted

    def test_out_and_seed_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        alt = tmp_path / "alt"
        assert main(["generate", "--config", cfg, "--out", str(alt)]) == 0
        assert (alt / "data.csv").exists()
        assert main(["generate", "--config", cfg, "--out", str(alt), "--seed", "7"]) == 0
        seeded = (alt / "data.json").read_text()
        assert json.loads(seeded)["seed"] == 7

    def test_seed_overrides_explicit_pso_seed(self, tmp_path):
        pso = {"swarm_size": 4, "iterations": 5}
        model_file = tmp_path / "out" / "model_fcm.json"

        def trained(seed_arg, **config):
            cfg = write_config(tmp_path, model="fcm", **config)
            argv = ["train", "--config", cfg] + (["--seed", seed_arg] if seed_arg else [])
            assert main(argv) == 0
            return model_file.read_bytes()

        assert main(["generate", "--config", write_config(tmp_path)]) == 0
        overridden = trained("9", pso={**pso, "seed": 5})
        assert overridden == trained(None, seed=9, pso={**pso, "seed": 9})
        assert overridden != trained(None, seed=9, pso={**pso, "seed": 5})

    def test_train_seed_does_not_change_the_model(self, tmp_path):
        # `kafcm train` seeds the model from the top-level seed; train.seed is unused
        models = []
        for train_seed in (0, 12345):
            train = {"learning_rate": 0.1, "epochs": 25, "lam": 0.0, "seed": train_seed}
            cfg = write_config(tmp_path, train=train)
            assert main(["generate", "--config", cfg]) == 0
            assert main(["train", "--config", cfg]) == 0
            models.append((tmp_path / "out" / "model_kafcm.json").read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("command,kind", [("train", "kafcm"), ("train", "fcm"), ("train", "mlp"), ("evaluate", "kafcm")])
    def test_non_finite_data_exits_2(self, tmp_path, capsys, command, kind, column, value):
        cfg = write_config(tmp_path, model=kind, pso={"swarm_size": 4, "iterations": 5})
        assert main(["generate", "--config", cfg]) == 0
        if command == "evaluate":
            save_model(build_model(load_config(cfg)), tmp_path / "out" / f"model_{kind}.json")
        data_csv = tmp_path / "out" / "data.csv"
        lines = data_csv.read_text().splitlines()
        cells = lines[7].split(",")
        cells[column] = value
        lines[7] = ",".join(cells)
        data_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"data row 6 (line 8), column {['x_0', 'y_0'][column]}" in err
        assert not (tmp_path / "out" / f"history_{kind}.csv").exists()

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("train", {"edge": [1]}, "edge"),
            ("generate", {"edge": [1, "0"]}, "edge"),
            ("extract", {"edge": "10"}, "edge"),
            ("gridsearch", {"space": {"bogus": [1]}}, "bogus"),
            ("gridsearch", {"space": {"grid_sizes": 4}}, "space"),
            ("generate", {"dataset": {"n": "abc"}}, "dataset: n must be of type int, got 'abc'"),
            ("generate", {"dataset": {"n": 5.5}}, "dataset: n must be of type int, got 5.5"),
            ("generate", {"dataset": {"bogus": 1}}, "bogus"),
            ("gridsearch", {"experiment": "sine", "dataset": {"n": "abc"}}, "dataset: n must be of type int"),
            ("generate", {"experiment": "sine", "dataset": {"frequency": "x"}}, "dataset"),
            ("generate", {"experiment": "mackey", "dataset": {"lag": "4"}}, "dataset"),
            ("train", {"grid_size": 2.5}, "grid_size must be of type int, got 2.5"),
            ("generate", {"grid_size": "abc"}, "grid_size must be of type int, got 'abc'"),
            ("train", {"degree": True}, "degree must be of type int, got True"),
            ("train", {"seed": "x"}, "seed must be of type int, got 'x'"),
            ("extract", {"curve_points": 2.5}, "curve_points must be of type int"),
            ("train", {"train": {"epochs": 2.5}}, "train: epochs must be of type int, got 2.5"),
            ("train", {"train": {"learning_rate": "0.1"}}, "train: learning_rate must be of type float"),
            ("train", {"train": {"lam": None}}, "train: lam must be of type float"),
            ("train", {"train": 5}, "train: must be a JSON object, got 5"),
            ("train", {"model": "fcm", "pso": {"swarm_size": 3.5}}, "pso: swarm_size must be of type int"),
            ("train", {"model": "fcm", "pso": {"iterations": False}}, "pso: iterations must be of type int"),
            ("train", {"model": "fcm", "pso": {"inertia": "x"}}, "pso: inertia must be of type float"),
            ("generate", {"dataset": 5}, "dataset must be of type dict, got 5"),
            ("generate", {"out": 5}, "out must be of type str, got 5"),
            ("generate", {"data_path": 5}, "data_path must be of type str | None, got 5"),
            ("gridsearch", {"space": {"grid_sizes": [4, 4.5]}}, "space: grid_sizes must be of type list[int]"),
            ("gridsearch", {"space": {"learning_rates": ["0.1"]}}, "space: learning_rates must be of type list[float]"),
            ("gridsearch", {"space": {"epoch_values": [True]}}, "space: epoch_values must be of type list[int]"),
            ("train", {"model": "fcm", "pso": {"weight_bounds": ["a", 1]}},
             "pso: weight_bounds must be of type tuple[float, float], got ['a', 1]"),
            ("train", {"model": "fcm", "pso": {"weight_bounds": [-1, 0, 1]}},
             "pso: weight_bounds must be of type tuple[float, float], got [-1, 0, 1]"),
            ("extract", {"edge": [True, False]}, "edge must be of type tuple[int, int] | None, got [True, False]"),
            ("train", {"bounding": "relu"}, "unknown bounding 'relu'"),
            ("generate", {"degree": -1}, "degree must be non-negative, got -1"),
            ("extract", {"curve_points": 1}, "curve_points must be at least 10"),
            ("extract", {"curve_points": 9}, "curve_points must be at least 10, got 9"),
            ("generate", {"dataset": {"n": 80, "noise_sd": True}}, "dataset: noise_sd must be of type float, got True"),
            ("generate", {"dataset": {"n": True}}, "dataset: n must be of type int, got True"),
            ("generate", {"experiment": "sine", "dataset": {"frequency": False}}, "dataset: frequency must be of type float"),
            ("generate", {"experiment": "mackey", "dataset": {"lag": True}}, "dataset: lag must be of type int, got True"),
            ("generate", {"experiment": "mackey", "dataset": {"lag": 4, "washout": 10.5}},
             "dataset: washout must be of type int, got 10.5"),
            ("generate", {"experiment": "mackey", "dataset": {"lag": 4, "beta": "x"}},
             "dataset: beta must be of type float, got 'x'"),
            ("evaluate", {"fcm_encoding": "onehot"}, "unknown fcm_encoding 'onehot'"),
            ("train", {"model": "fcm", "pso": {"iterations": 0}}, "pso: iterations must be at least 1"),
            ("generate", {"seed": -1}, "config error: seed must be non-negative, got -1"),
            ("train", {"train": {"epochs": 25, "seed": -2}}, "config error: train: seed must be non-negative, got -2"),
            ("train", {"model": "fcm", "pso": {"seed": -3}}, "config error: pso: seed must be non-negative, got -3"),
            ("train", {"model": "mlp", "seed": -4}, "config error: seed must be non-negative, got -4"),
            ("generate --seed -5", {}, "config error: --seed must be non-negative, got -5"),
        ],
        ids=["edge-short", "edge-text", "edge-string", "space-key", "space-scalar",
             "yerkes-n-text", "yerkes-n-float", "yerkes-key", "sine-n-text", "sine-frequency", "mackey-lag",
             "grid-size-float", "grid-size-text", "degree-bool", "seed-text", "curve-points-float",
             "epochs-float", "learning-rate-text", "lam-null", "train-scalar", "swarm-size-float",
             "iterations-bool", "inertia-text", "dataset-scalar", "out-number", "data-path-number",
             "space-grid-size-float", "space-rate-text", "space-epochs-bool", "weight-bounds-text",
             "weight-bounds-triple", "edge-bools", "bounding-unknown", "degree-negative",
             "curve-points-one", "curve-points-nine", "yerkes-noise-bool", "yerkes-n-bool", "sine-frequency-bool",
             "mackey-lag-bool", "mackey-washout-float", "mackey-beta-text", "fcm-encoding-unknown", "iterations-zero",
             "seed-negative", "train-seed-negative", "pso-seed-negative", "mlp-seed-negative", "seed-flag-negative"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        capsys.readouterr()
        assert main([*command.split(), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"train": {"learning_rate": math.nan}}, "train: learning_rate must be positive and finite, got nan"),
            ({"train": {"learning_rate": math.inf}}, "train: learning_rate must be positive and finite, got inf"),
            ({"train": {"lam": math.nan}}, "train: lam must be non-negative and finite, got nan"),
            ({"train": {"lam": math.inf}}, "train: lam must be non-negative and finite, got inf"),
            ({"model": "fcm", "pso": {"inertia": math.nan}}, "pso: inertia must be finite, got nan"),
            ({"model": "fcm", "pso": {"cognitive": -math.inf}}, "pso: cognitive must be finite, got -inf"),
            ({"model": "fcm", "pso": {"social": math.inf}}, "pso: social must be finite, got inf"),
            ({"model": "fcm", "pso": {"weight_bounds": [-math.inf, 1]}},
             "pso: weight_bounds must be finite with lo < hi, got [-inf, 1]"),
            ({"model": "fcm", "pso": {"weight_bounds": [-1, math.nan]}},
             "pso: weight_bounds must be finite with lo < hi, got [-1, nan]"),
            ({"model": "fcm", "pso": {"weight_bounds": [-1e308, 1e308]}},
             "pso: weight_bounds must have a finite width hi - lo, got [-1e+308, 1e+308]"),
            ({"dataset": {"n": 80, "noise_sd": math.nan}}, "dataset: noise_sd must be finite, got nan"),
            ({"experiment": "sine", "dataset": {"frequency": math.inf}}, "dataset: frequency must be finite, got inf"),
            ({"experiment": "mackey", "dataset": {"lag": 4, "beta": -math.inf}}, "dataset: beta must be finite, got -inf"),
        ],
        ids=["learning-rate-nan", "learning-rate-inf", "lam-nan", "lam-inf", "inertia-nan", "cognitive-minus-inf",
             "social-inf", "weight-bounds-minus-inf", "weight-bounds-nan", "weight-bounds-too-wide", "noise-sd-nan",
             "frequency-inf", "mackey-beta-minus-inf"],
    )
    def test_non_finite_config_numbers_exit_2(self, tmp_path, capsys, overrides, message):
        # json writes NaN and Infinity tokens, which Python's json reads back
        cfg = write_config(tmp_path, **overrides)
        for command in ("generate", "train"):
            capsys.readouterr()
            assert main([command, "--config", cfg]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_data_path_names_it(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "x.csv"
        cfg = write_config(tmp_path, data_path=str(target))
        capsys.readouterr()
        assert main(["generate", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: [Errno 2] No such file or directory:") and str(target) in err
        assert ".tmp" not in err


def test_python_m_kafcm_entry_point(tmp_path):
    """`python -m kafcm` runs a subcommand and maps a config error to exit
    2 with a one-line message, not a traceback."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def run(cfg):
        return subprocess.run(
            [sys.executable, "-m", "kafcm", "generate", "--config", cfg],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    ok = run(write_config(tmp_path))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "out" / "data.csv").exists()
    bad = run(write_config(tmp_path, name="bad.json", bogus=1))
    assert bad.returncode == 2
    assert "config error:" in bad.stderr and "Traceback" not in bad.stderr
