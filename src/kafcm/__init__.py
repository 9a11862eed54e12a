"""Kolmogorov-Arnold fuzzy cognitive maps.

Fuzzy cognitive maps whose edges are learnable univariate functions (a SiLU
base path plus a weighted B-spline), with gradient training, PSO and MLP
baselines, synthetic data generators, grid search, and symbolic extraction
of learned edge laws.
"""

from kafcm.baselines import MLPParams, default_mlp_config, mlp_forward, mlp_gradient, mlp_init, mlp_train
from kafcm.cli_harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    canonical_config,
    load_config,
    load_model,
    run_pipeline,
    save_model,
)
from kafcm.cognitive_graph import (
    DivergenceError,
    KAFCMModel,
    StandardFCM,
    Trajectory,
    fcm_step,
    kafcm_step,
    new_kafcm,
    scaling_benchmark,
    simulate,
)
from kafcm.datagen import (
    Dataset,
    MackeyGlassParams,
    gen_mackey_glass,
    gen_sine,
    gen_yerkes,
    lag_embed,
    load_dataset,
    save_dataset,
    split_dataset,
    yerkes_law,
)
from kafcm.edge_functions import EdgeFunction, edge_eval, edge_grad, init_edge, silu
from kafcm.metrics_eval import MetricsReport, compute_metrics
from kafcm.spline_core import KnotGrid, basis_matrix, make_uniform_grid
from kafcm.symbolic import CandidateFit, EdgeCurve, fit_candidates, sample_edge
from kafcm.training import (
    GridSearchSpace,
    PSOConfig,
    TrainConfig,
    grid_search,
    model_gradient,
    predict_one_step,
    pso_train_fcm,
    train_gd,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CandidateFit",
    "ConfigError",
    "Dataset",
    "DivergenceError",
    "EdgeCurve",
    "EdgeFunction",
    "ExperimentConfig",
    "ExperimentResult",
    "GridSearchSpace",
    "KAFCMModel",
    "KnotGrid",
    "MackeyGlassParams",
    "MetricsReport",
    "MLPParams",
    "PSOConfig",
    "StandardFCM",
    "TrainConfig",
    "Trajectory",
    "basis_matrix",
    "canonical_config",
    "compute_metrics",
    "default_mlp_config",
    "edge_eval",
    "edge_grad",
    "fcm_step",
    "fit_candidates",
    "gen_mackey_glass",
    "gen_sine",
    "gen_yerkes",
    "grid_search",
    "init_edge",
    "kafcm_step",
    "lag_embed",
    "load_config",
    "load_dataset",
    "load_model",
    "make_uniform_grid",
    "mlp_forward",
    "mlp_gradient",
    "mlp_init",
    "mlp_train",
    "model_gradient",
    "new_kafcm",
    "predict_one_step",
    "pso_train_fcm",
    "run_pipeline",
    "sample_edge",
    "save_dataset",
    "save_model",
    "scaling_benchmark",
    "silu",
    "simulate",
    "split_dataset",
    "train_gd",
    "yerkes_law",
]
