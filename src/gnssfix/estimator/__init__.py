"""Measurement-error estimation: features, the graph network, training, and
the heuristic weighting baselines."""

from .features import (
    FEATURE_DIM,
    DegenerateStdWarning,
    EpochGraph,
    ScalerParams,
    apply_feature_scaler,
    apply_label_scaler,
    build_graph,
    extract_features,
    fit_scaler,
    guess_state,
    initial_clock_bias,
    unscale_labels,
)
from .network import ModelParams, init_params, load_model, predict_errors, save_model
from .training import TrainConfig, train
from .baselines import (
    ElevationWeightFit,
    fit_elevation_baseline,
    fit_elevation_weights,
    heuristic_weights,
)

__all__ = [
    "FEATURE_DIM",
    "DegenerateStdWarning",
    "EpochGraph",
    "ScalerParams",
    "apply_feature_scaler",
    "apply_label_scaler",
    "build_graph",
    "extract_features",
    "fit_scaler",
    "guess_state",
    "initial_clock_bias",
    "unscale_labels",
    "ModelParams",
    "init_params",
    "load_model",
    "predict_errors",
    "save_model",
    "TrainConfig",
    "train",
    "ElevationWeightFit",
    "fit_elevation_baseline",
    "fit_elevation_weights",
    "heuristic_weights",
]
