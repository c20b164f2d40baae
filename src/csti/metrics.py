"""Evaluation metrics and series exports for regression-line plots."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DegenerateTargetError, ShapeMismatchError
from .numerics import atomic_open


def _pair(pred, actual):
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    if p.size != a.size:
        raise ShapeMismatchError(f"length mismatch: {p.size} vs {a.size}")
    if p.size == 0:
        raise ContractViolation("empty prediction/actual series")
    return p, a


def mae(pred, actual) -> float:
    """Mean absolute error."""
    p, a = _pair(pred, actual)
    return float(np.mean(np.abs(p - a)))


def mse(pred, actual) -> float:
    """Mean squared error."""
    p, a = _pair(pred, actual)
    return float(np.mean((p - a) ** 2))


def r_squared(pred, actual) -> float:
    """Coefficient of determination against the mean-of-actuals baseline."""
    p, a = _pair(pred, actual)
    total = float(np.sum((a - a.mean()) ** 2))
    if total == 0.0:
        raise DegenerateTargetError("actual series has zero variance")
    residual = float(np.sum((a - p) ** 2))
    return 1.0 - residual / total


@dataclass(frozen=True)
class MetricSet:
    mae: float
    mse: float
    r2: float
    n: int

    def __post_init__(self):
        if self.mae < 0 or self.mse < 0 or self.n < 1:
            raise ContractViolation("mae/mse must be >= 0 and n >= 1")
        # Jensen: mean(|e|)^2 <= mean(e^2); relative fp slack
        if self.mae * self.mae > self.mse * (1.0 + 1e-9) + 1e-12:
            raise ContractViolation("mae^2 exceeds mse; inconsistent metrics")

    def as_dict(self) -> dict:
        return {"mae": self.mae, "mse": self.mse, "r2": self.r2, "n": self.n}


def metric_set(pred, actual) -> MetricSet:
    p, a = _pair(pred, actual)
    return MetricSet(mae=mae(p, a), mse=mse(p, a), r2=r_squared(p, a), n=p.size)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-stock and aggregate evaluation results for one strategy run."""

    per_stock: dict  # stock_id -> MetricSet
    macro: dict  # metric name -> macro average across stocks
    pooled: MetricSet  # metrics over all test windows pooled
    series: dict  # stock_id -> {"t": [...], "actual": [...], "predicted": [...]}
    per_stock_denormalized: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "per_stock": {k: v.as_dict() for k, v in sorted(self.per_stock.items())},
            "macro": dict(sorted(self.macro.items())),
            "pooled": self.pooled.as_dict(),
        }
        if self.per_stock_denormalized:
            out["per_stock_denormalized"] = {
                k: v.as_dict() for k, v in sorted(self.per_stock_denormalized.items())
            }
        return out


def macro_average(sets) -> dict:
    """Unweighted mean of each metric across stocks, from a correctly rounded sum.

    ``math.fsum`` makes the result independent of the order of ``sets``.
    """
    sets = list(sets)
    if not sets:
        raise ContractViolation("no metric sets to average")
    return {name: math.fsum(getattr(s, name) for s in sets) / len(sets)
            for name in ("mae", "mse", "r2")}


def export_regression_series(pred, actual, path, t=None) -> None:
    """CSV with columns t, actual, predicted; deterministic 9-digit floats."""
    p, a = _pair(pred, actual)
    if t is None:
        t = np.arange(p.size)
    t = np.asarray(t).reshape(-1)
    if t.size != p.size:
        raise ShapeMismatchError("t length does not match series")
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "actual", "predicted"])
        for ti, ai, pi in zip(t, a, p):
            writer.writerow([int(ti), f"{ai:.9g}", f"{pi:.9g}"])


def write_report_json(document: dict, path) -> None:
    """Stable JSON serialization: sorted keys, fixed separators."""
    with atomic_open(path, encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, indent=2, separators=(",", ": "))
        fh.write("\n")
