"""GNSS positioning toolkit: simulation, learned error estimation,
cost-function regulation and weighted-least-squares multilateration."""

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
from .types import (
    Band,
    Constellation,
    EcefPosition,
    Epoch,
    SolutionState,
)
from .geometry import (
    angular_proximity,
    ecef_to_enu,
    elevation_azimuth,
    enu_basis,
    enu_to_ecef,
    line_of_sight,
)
from .solver import (
    WlsConfig,
    WlsResult,
    computed_pseudorange,
    cost,
    geometry_matrix,
    horizontal_error,
    residuals,
    wls_solve,
)
from .regulator import (
    build_scaled_geometry,
    kernel_basis,
    regulate_measurements,
    regulate_weights,
)
from .selector import SelectorConfig, select_measurements
from .estimator import (
    ElevationWeightFit,
    EpochGraph,
    ModelParams,
    ScalerParams,
    TrainConfig,
    apply_feature_scaler,
    apply_label_scaler,
    build_graph,
    extract_features,
    fit_elevation_baseline,
    fit_elevation_weights,
    fit_scaler,
    guess_state,
    heuristic_weights,
    init_params,
    initial_clock_bias,
    load_model,
    predict_errors,
    save_model,
    train,
    unscale_labels,
)
from .estimator.features import DegenerateStdWarning
from .simulator import (
    SceneConfig,
    default_scenes,
    generate_dataset,
    generate_epoch,
    sample_sky_mask,
)
from .dataset import (
    DatasetManifest,
    load_dataset,
    read_manifest,
    read_shard,
    write_shard,
)
from .evaluation import (
    EvalReport,
    PipelineSpec,
    aggregate_reports,
    emit_reports,
    percentile,
    run_pipeline,
)

__version__ = "0.1.0"
