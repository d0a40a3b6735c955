"""GNSS positioning toolkit: simulation, learned error estimation,
cost-function regulation and weighted-least-squares multilateration.

The top level exports the error classes, Epoch and the pieces a caller
composes a pipeline from; every other helper lives in its module.
"""

from .errors import (
    DegenerateGeometry,
    DegenerateProjection,
    EmptyInput,
    GnssFixError,
    InsufficientMeasurements,
    InsufficientRedundancy,
    IoFailure,
    LengthMismatch,
    MissingFit,
    ModelMissing,
    NoLabels,
    NonFiniteInput,
    ShapeMismatch,
    SingularNormalMatrix,
)
from .types import Epoch
from .solver import WlsConfig, geometry_matrix, horizontal_error, wls_solve
from .regulator import regulate_measurements, regulate_weights
from .selector import SelectorConfig, select_measurements
from .estimator.baselines import fit_elevation_baseline
from .estimator.features import guess_state
from .estimator.network import load_model, predict_errors, save_model
from .estimator.training import TrainConfig, train
from .simulator import default_scenes, generate_dataset, generate_epoch
from .dataset import load_dataset
from .evaluation import PipelineSpec, run_pipeline

__version__ = "0.1.0"
