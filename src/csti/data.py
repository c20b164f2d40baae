"""Stock series ingestion, normalization, windowing, synthetic markets.

All containers are immutable after construction (arrays are marked
read-only) so multiple trainers can share them without copying; the
windows ``make_windows`` cuts are views of a series' own rows, not copies.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateColumnError,
    InsufficientDataError,
    NumericInputError,
    SchemaError,
    WrongNormalizerError,
)
from .numerics import BOOLEAN, check, integer, real, reals, shown

CLOSE_COL = 1  # the columns are open, close and optional sentiment

SPLIT_NAMES = ("train", "val", "test")

# The rules of the market's and the windows' arguments. The spec's rows hold these very
# objects (``experiment._FIELDS``), and ``training.SETTINGS`` the stocks and seed rules.
STOCKS, SEED, LENGTH, HORIZON = integer(1), integer(0), integer(64), integer(1)
WINDOW_LOOKBACK = integer(1)  # a window's lookback; a model needs more (``models.LOOKBACK``)
SHARED_STRENGTH = real(lambda v: 0 <= v <= 1, "number in [0, 1] required")
FRACTIONS = reals(lambda x: x > 0, lambda f: len(f) == 3 and abs(sum(f) - 1.0) <= 1e-9,
                  "three positive numbers summing to 1 required")


@dataclass(frozen=True)
class StockSeries:
    """One stock's feature rows in date order: open, close and optional sentiment.

    Dates only order the rows (and drop duplicates, in ``load_csv_detailed``);
    no stage reads them, so they are not kept.
    """

    stock_id: str
    features: np.ndarray  # (T, d) float64

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] not in (2, 3):
            raise ContractViolation("features must be (T, d) with d in {2, 3}")
        if not np.all(np.isfinite(feats)):
            raise NumericInputError(f"{self.stock_id}: non-finite feature values")
        feats = feats.copy()
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)

    @property
    def T(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def has_sentiment(self) -> bool:
        return self.d == 3

    def drop_sentiment(self) -> "StockSeries":
        if not self.has_sentiment:
            return self
        return StockSeries(self.stock_id, self.features[:, :2])


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column min/max fitted on the train segment of one stock."""

    stock_id: str
    per_column_min: np.ndarray
    per_column_max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.per_column_min, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.per_column_max, dtype=np.float64).reshape(-1)
        if lo.size != hi.size:
            raise ContractViolation("min/max length mismatch")
        if not np.all(hi > lo):
            bad = int(np.argmin(hi - lo))
            raise DegenerateColumnError(
                f"{self.stock_id}: column {bad} has max <= min"
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "per_column_min", lo)
        object.__setattr__(self, "per_column_max", hi)


def windows_finite(inputs: np.ndarray) -> bool:
    """Whether all (N, L, ...) windows are finite, reading each value once.

    Windows as strided from one to the next as within one (``make_windows``'s
    views) hold just the values of ``inputs[:, 0]`` and ``inputs[-1]``, so
    only those are read; any other array is read whole.
    """
    if inputs.size and inputs.strides[0] == inputs.strides[1]:
        return bool(np.isfinite(inputs[:, 0]).all() and np.isfinite(inputs[-1]).all())
    return bool(np.isfinite(inputs).all())


@dataclass(frozen=True)
class WindowedDataset:
    """Stride-1 windows over one chronological split of a stock series.

    The windows do not name their split, which ``make_windows`` picks. Float64
    arrays are held as given, read-only: ``inputs`` may be a view.
    """

    stock_id: str
    lookback: int
    horizon: int
    inputs: np.ndarray  # (N, L, d)
    targets: np.ndarray  # (N, H) normalized close prices
    absolute_indices: np.ndarray  # (N,) index of each first target row

    def __post_init__(self):
        lookback = check("lookback", WINDOW_LOOKBACK, self.lookback)
        horizon = check("horizon", HORIZON, self.horizon)
        # views, so that freezing them leaves the caller's own arrays writeable
        inputs = np.asarray(self.inputs, dtype=np.float64).view()
        targets = np.asarray(self.targets, dtype=np.float64).view()
        idx = np.asarray(self.absolute_indices, dtype=np.int64).view()
        if inputs.ndim != 3 or targets.ndim != 2:
            raise ContractViolation("inputs must be (N, L, d), targets (N, H)")
        n = inputs.shape[0]
        if n < 1:
            raise InsufficientDataError("windowed dataset is empty")
        if targets.shape[0] != n or idx.shape[0] != n:
            raise ContractViolation("inputs/targets/indices row counts differ")
        if inputs.shape[1] != lookback or targets.shape[1] != horizon:
            raise ContractViolation("window shapes disagree with L/H")
        if not (windows_finite(inputs) and np.all(np.isfinite(targets))):
            raise NumericInputError(f"{self.stock_id}: non-finite window values")
        for arr in (inputs, targets, idx):
            arr.flags.writeable = False
        for name, value in (("lookback", lookback), ("horizon", horizon), ("inputs", inputs),
                            ("targets", targets), ("absolute_indices", idx)):
            object.__setattr__(self, name, value)

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[2]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_csv_detailed(path, with_sentiment: bool = False,
                      min_rows: int = 2) -> tuple[StockSeries, list[str]]:
    """Parse a stock CSV, returning the series and a row rejection report.

    The file is UTF-8 text, after an optional byte-order mark. Required
    header columns, each named once ignoring case: date (ASCII
    YYYY-MM-DD), open, close (sentiment when flagged); extra columns are
    ignored. Rows with missing, non-numeric or unparseable cells and
    duplicate dates are dropped and reported. The dates sort the rows and
    find the duplicates; they are not kept. The stock id is the file stem.
    """
    path, min_rows = str(path), check("min_rows", integer(1), min_rows)
    sentiment = ["sentiment"] if check("with_sentiment", BOOLEAN, with_sentiment) else []
    wanted = ["date", "open", "close"] + sentiment
    with open(path, "rb") as fh:
        raw = fh.read()
    bom = 3 if raw.startswith(b"\xef\xbb\xbf") else 0  # a UTF-8 byte-order mark, as Excel writes
    try:
        text = raw[bom:].decode("utf-8")
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text at byte offset {bom + err.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        rows = list(reader)
    except csv.Error as err:  # e.g. a cell over csv.field_size_limit()
        raise SchemaError(f"{path}: line {reader.line_num}: {err}") from None
    if header is None:
        raise SchemaError(f"{path}: empty file, header row required")
    names = [name.strip().lower() for name in header]
    for name in wanted:
        if name not in names:
            raise SchemaError(f"{path}: missing required column {name!r}")
        if names.count(name) > 1:
            raise SchemaError(f"{path}: required column {name!r} is named more than once")
    pick = operator.itemgetter(*map(names.index, wanted))  # a row's date, then its values
    width = len(header)

    rejections: list[str] = []
    parsed: list[tuple[datetime.date, list[float]]] = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) < width or not all(map(str.strip, cells := pick(row))):
            rejections.append(f"line {lineno}: missing cell")
            continue
        stamp = cells[0].strip()
        try:  # YYYY-MM-DD only: fromisoformat takes more forms on Python 3.11+
            if not (len(stamp) == 10 and stamp.isascii() and stamp[4] == stamp[7] == "-"):
                raise ValueError(stamp)
            day = datetime.date.fromisoformat(stamp)
        except ValueError:
            rejections.append(f"line {lineno}: unparseable date {cells[0]!r}")
            continue
        try:
            values = list(map(float, cells[1:]))
        except ValueError:
            rejections.append(f"line {lineno}: non-numeric cell")
            continue
        if not all(map(math.isfinite, values)):
            rejections.append(f"line {lineno}: non-finite value")
            continue
        parsed.append((day, values))

    parsed.sort(key=lambda item: item[0])
    deduped: list[tuple[datetime.date, list[float]]] = []
    for day, values in parsed:
        if deduped and deduped[-1][0] == day:
            rejections.append(f"duplicate date {day.isoformat()} dropped")
            continue
        deduped.append((day, values))

    if len(deduped) < min_rows:
        raise InsufficientDataError(
            f"{path}: {len(deduped)} usable rows, need at least {min_rows}"
        )
    features = np.array([vals for _, vals in deduped], dtype=np.float64)
    return StockSeries(stock_id_from_path(path), features), rejections


def stock_id_from_path(path: str) -> str:
    """The stock id of a loaded CSV: the file name's stem."""
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def fit_normalizer(series: StockSeries, train_fraction: float) -> NormalizationParams:
    """Min/max per column over the first floor(train_fraction * T) rows."""
    train_fraction = check("train_fraction", real(lambda v: 0 < v < 1, "number in (0, 1) required"),
                           train_fraction)
    n_train = int(np.floor(train_fraction * series.T))  # the train rows of split_bounds
    if n_train < 2:
        raise ContractViolation("train segment must have at least 2 rows")
    seg = series.features[:n_train]
    params = NormalizationParams(series.stock_id, seg.min(axis=0), seg.max(axis=0))
    lo, hi = params.per_column_min, params.per_column_max
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite span gives inf/inf
        scaled = (series.features - lo) / (hi - lo)
    finite = np.isfinite(scaled)
    if not finite.all():
        raise DegenerateColumnError(
            f"{series.stock_id}: column {int(np.argmin(finite.all(axis=0)))} train span "
            "too small or too large to scale the series"
        )
    return params


def normalize(series: StockSeries, params: NormalizationParams) -> StockSeries:
    """Map each column by x -> (x - min)/(max - min). No clipping."""
    if params.stock_id != series.stock_id:
        raise WrongNormalizerError(
            f"normalizer for {params.stock_id!r} applied to {series.stock_id!r}"
        )
    if params.per_column_min.size != series.d:
        raise WrongNormalizerError(
            f"{series.stock_id}: normalizer of {params.per_column_min.size} columns "
            f"applied to a series of {series.d}"
        )
    span = params.per_column_max - params.per_column_min
    feats = (series.features - params.per_column_min) / span
    return StockSeries(series.stock_id, feats)


def denormalize_close(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Undo min/max scaling for close-price predictions/targets."""
    span = params.per_column_max[CLOSE_COL] - params.per_column_min[CLOSE_COL]
    return np.asarray(values) * span + params.per_column_min[CLOSE_COL]


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def split_bounds(total: int, fractions: Sequence[float]) -> dict[str, tuple[int, int]]:
    """Chronological [start, end) row ranges for train/val/test."""
    fractions = check("fractions", FRACTIONS, fractions)
    n_train = int(np.floor(fractions[0] * total))
    n_val = int(np.floor(fractions[1] * total))
    return {
        "train": (0, n_train),
        "val": (n_train, n_train + n_val),
        "test": (n_train + n_val, total),
    }


def make_windows(series: StockSeries, lookback: int, horizon: int, split: str,
                 fractions: Sequence[float] = (0.7, 0.1, 0.2)) -> WindowedDataset:
    """Stride-1 windows inside one chronological split segment.

    Expects an already-normalized series. Inputs are a read-only view of
    its feature rows; targets, the close column, a contiguous copy.
    """
    if split not in SPLIT_NAMES:
        raise ContractViolation(f"split must be one of {SPLIT_NAMES}")
    lookback = check("lookback", WINDOW_LOOKBACK, lookback)
    horizon = check("horizon", HORIZON, horizon)
    start, end = split_bounds(series.T, fractions)[split]
    seg_len = end - start
    needed = lookback + horizon
    if seg_len < needed:
        raise InsufficientDataError(
            f"{series.stock_id}/{split}: segment has {seg_len} rows, "
            f"needs at least L+H={needed}"
        )
    seg = series.features[start:end]
    # (n, L+H, d) views of the segment; targets are copied, as a take of a view copies it whole
    windows = np.lib.stride_tricks.sliding_window_view(seg, (needed, seg.shape[1]))[:, 0]
    return WindowedDataset(series.stock_id, lookback, horizon, windows[:, :lookback],
                           np.ascontiguousarray(windows[:, lookback:, CLOSE_COL]),
                           start + lookback + np.arange(len(windows)))


# ---------------------------------------------------------------------------
# synthetic correlated market
# ---------------------------------------------------------------------------

def generate_synthetic_market(stocks: int, length: int, shared_strength: float,
                              seed: int) -> list[StockSeries]:
    """Correlated synthetic market driven by one latent signal.

    Each close series mixes a shared latent (linear trend plus two
    sinusoids with seeded random phases) with an idiosyncratic AR(1)
    path: close = base + s*common + (1-s)*ar1. Open lags close by one
    step plus small noise; sentiment is a bounded noisy transform of the
    one-step return. Deterministic given the seed.
    """
    stocks, length = check("stocks", STOCKS, stocks), check("length", LENGTH, length)
    shared_strength = check("shared_strength", SHARED_STRENGTH, shared_strength)
    seed = check("seed", SEED, seed)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    try:
        t = np.arange(length, dtype=np.float64)
    except (ValueError, MemoryError) as err:  # more rows than numpy can allocate
        raise ContractViolation(f"length {shown(length)} is too large to generate: {err}") from None
    phase1, phase2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    common = (
        1.5 * (2.0 * t / length - 1.0)
        + 1.0 * np.sin(2.0 * np.pi * t / 64.0 + phase1)
        + 0.6 * np.sin(2.0 * np.pi * t / 16.0 + phase2)
    )

    ar_coef, ar_scale = 0.9, 0.18

    out: list[StockSeries] = []
    for k in range(stocks):
        shocks = rng.normal(0.0, ar_scale, size=length)
        # on Python floats: the same IEEE multiply and add per step as on float64 scalars
        idio = np.array(list(itertools.accumulate(
            shocks.tolist(), lambda prev, shock: ar_coef * prev + shock)))
        close = 10.0 + shared_strength * common + (1.0 - shared_strength) * idio

        open_noise = rng.normal(0.0, 0.02, size=length)
        opens = np.empty(length)
        opens[0] = close[0] + open_noise[0]
        opens[1:] = close[:-1] + open_noise[1:]

        returns = np.zeros(length)
        returns[1:] = np.diff(close)
        ret_scale = max(float(np.std(returns[1:])), 1e-9)
        sent_noise = rng.normal(0.0, 0.3, size=length)
        sentiment = 1.0 / (1.0 + np.exp(-(returns / ret_scale + sent_noise)))

        feats = np.column_stack([opens, close, sentiment])
        out.append(StockSeries(f"SYN{k:03d}", feats))
    return out
