"""Cross-stock trend integration for lightweight price forecasters.

Train one model per stock (in lockstep, as one stack of parameter rows),
iteratively average the parameter vectors into a global model, then
fine-tune per stock with a proximal pull toward the global parameters.
Ships a small model zoo (dlinear, paifilter, texfilter, frets) with
hand-derived gradients, and an experiment harness comparing the
merge protocol against sequential single-stock training.
"""

__version__ = "0.1.0"

from .data import (
    NormalizationParams,
    StockSeries,
    WindowedDataset,
    denormalize_close,
    fit_normalizer,
    generate_synthetic_market,
    load_csv_detailed,
    make_windows,
    normalize,
)
from .errors import (
    ContractViolation,
    CstiError,
    DegenerateColumnError,
    DegenerateTargetError,
    DivergenceError,
    InsufficientDataError,
    MergeIncompatibilityError,
    NumericInputError,
    SchemaError,
    ShapeMismatchError,
    SpecValidationError,
    WrongNormalizerError,
)
from .experiment import (
    ExperimentSpec,
    main,
    run_experiment,
    validate_spec,
)
from .metrics import (
    ExperimentReport,
    MetricSet,
    export_regression_series,
    mae,
    metric_set,
    mse,
    r_squared,
)
from .models import (
    MODEL_KINDS,
    ForecastModel,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import ParamVector, axpy_merge
from .training import (
    CstiConfig,
    TrainingTrace,
    evaluate,
    run_csti,
    run_normal,
    train_local,
    write_trace_csv,
)
