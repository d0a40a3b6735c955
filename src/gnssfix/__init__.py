"""GNSS positioning toolkit: simulation, learned error estimation,
cost-function regulation and weighted-least-squares multilateration.

The top level exports the error classes, Epoch and what a caller needs to
generate data, train a model and run a pipeline; the kernels and their
one-epoch views live in their modules.
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
from .estimator.baselines import fit_elevation_baseline
from .estimator.network import load_model, save_model
from .estimator.training import TrainConfig, train
from .simulator import default_scenes, generate_dataset, generate_epoch
from .dataset import load_dataset
from .evaluation import PipelineSpec, run_pipeline

__version__ = "0.1.0"
