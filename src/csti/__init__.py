"""Cross-stock trend integration for lightweight price forecasters.

Train one model per stock (in lockstep, as one stack of parameter rows),
iteratively average the parameter vectors into a global model, then
fine-tune per stock with a proximal pull toward the global parameters.
Ships a small model zoo (dlinear, paifilter, texfilter, frets), a
hand-checked gradient engine, and an experiment harness comparing the
merge protocol against sequential single-stock training.
"""

__version__ = "0.1.0"

from .data import (
    NormalizationParams,
    StockSeries,
    WindowedDataset,
    denormalize,
    denormalize_close,
    fit_normalizer,
    generate_synthetic_market,
    load_csv,
    load_csv_detailed,
    make_windows,
    normalize,
    save_series_csv,
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
    NumericOverflowError,
    SchemaError,
    ShapeMismatchError,
    SpecValidationError,
    SymmetryViolationError,
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
from .numerics import (
    OptimizerState,
    ParamVector,
    Spectrum,
    axpy_merge,
    complex_hadamard,
    dft,
    finite_diff_gradient,
    gradient,
    idft,
    load_param_vector,
    save_param_vector,
    sgd_step,
)
from .training import (
    CstiConfig,
    TrainingTrace,
    evaluate,
    run_csti,
    run_normal,
    train_local,
    write_trace_csv,
)
