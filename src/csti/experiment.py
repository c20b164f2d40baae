"""Config-driven experiment runner: strategies x model kinds x feature sets.

The spec file is JSON (nested key/value). Every cell of the grid trains,
evaluates on held-out test windows and writes a report bundle under
<out>/<model>/<strategy>/<features>/; a summary table collects the macro
metrics of all cells.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    StockSeries,
    fit_normalizer,
    generate_synthetic_market,
    load_csv,
    make_windows,
    normalize,
    stock_id_from_path,
)
from .errors import (
    ContractViolation,
    CstiError,
    DivergenceError,
    SpecValidationError,
)
from .metrics import export_regression_series, write_report_json
from .models import MODEL_KINDS, OUT_OF_SCOPE_KINDS, _resolve, save_checkpoint
from .numerics import ParamVector, load_container, save_container
from .training import (
    CstiConfig,
    CstiResult,
    NormalResult,
    evaluate,
    run_csti,
    run_normal,
    write_trace_csv,
)

FEATURE_SETS = ("with_sentiment", "without_sentiment")
STRATEGIES = ("normal", "csti")
NORMAL_EVAL_MODES = ("final", "snapshot")


@dataclass
class ExperimentSpec:
    """Fully resolved experiment description."""

    out_dir: str
    source: str  # "synthetic" | "csv"
    seed: int = 0
    # synthetic source
    stocks: int = 5
    length: int = 600
    shared_strength: float = 0.7
    # csv source
    csv_paths: tuple = ()
    # grid
    feature_sets: tuple = FEATURE_SETS
    model_kinds: tuple = ("dlinear",)
    strategies: tuple = STRATEGIES
    # windowing
    lookback: int = 16
    horizon: int = 1
    fractions: tuple = (0.7, 0.1, 0.2)
    # training
    merge_rounds: int = 50
    finetune_epochs: int = 50
    local_epochs_per_round: int = 1
    learning_rate: float = 0.01
    momentum: float = 0.9
    alpha: float = 1.0
    prox_weight: float = 0.01
    batch_size: int = 64
    merge_weights: tuple | None = None
    shared_init: bool = True
    epochs_total: int | None = None  # normal budget; defaults to the csti budget
    # execution: the most stocks in one kernel call; the optimizer step
    # always spans every stock, and results do not depend on this value
    jobs: int = 1
    normal_eval: str = "final"
    denormalized_metrics: bool = False
    model_hyper: dict = field(default_factory=dict)

    def csti_config(self) -> CstiConfig:
        return CstiConfig(
            stocks=self.stocks,
            merge_rounds=self.merge_rounds,
            finetune_epochs=self.finetune_epochs,
            local_epochs_per_round=self.local_epochs_per_round,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            alpha=self.alpha,
            prox_weight=self.prox_weight,
            merge_weights=self.merge_weights,
            batch_size=self.batch_size,
            seed=self.seed,
            shared_init=self.shared_init,
        )

    def normal_budget(self) -> int:
        if self.epochs_total is not None:
            return self.epochs_total
        return self.merge_rounds * self.local_epochs_per_round + self.finetune_epochs

    def echo(self) -> dict:
        doc = {
            "version": __version__,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "data": {"source": self.source},
            "features": list(self.feature_sets),
            "models": list(self.model_kinds),
            "strategies": list(self.strategies),
            "window": {
                "lookback": self.lookback,
                "horizon": self.horizon,
                "fractions": list(self.fractions),
            },
            "training": {
                "merge_rounds": self.merge_rounds,
                "finetune_epochs": self.finetune_epochs,
                "local_epochs_per_round": self.local_epochs_per_round,
                "learning_rate": self.learning_rate,
                "momentum": self.momentum,
                "alpha": self.alpha,
                "lambda": self.prox_weight,
                "batch_size": self.batch_size,
                "merge_weights": list(self.merge_weights) if self.merge_weights else None,
                "shared_init": self.shared_init,
                "epochs_total": self.normal_budget(),
            },
            "normal_eval": self.normal_eval,
            "denormalized_metrics": self.denormalized_metrics,
        }
        if self.source == "synthetic":
            doc["data"].update({
                "stocks": self.stocks,
                "length": self.length,
                "shared_strength": self.shared_strength,
            })
        else:
            doc["data"]["paths"] = list(self.csv_paths)
        if self.model_hyper:
            doc["model_hyper"] = self.model_hyper
        return doc


def _expect(errors, condition, message):
    if not condition:
        errors.append(message)
    return condition


def _number(value) -> bool:
    """A JSON number, not a boolean, that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


_JSON_TYPES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array"}


def _section(errors, raw, name, message):
    """The object under ``name``; an omitted or null section is empty."""
    value = raw.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        errors.append(f"{name}: {message}, got {_JSON_TYPES.get(type(value), 'a value')}")
        return {}
    return value


def validate_spec_dict(raw: dict, base_dir: Path | None = None) -> ExperimentSpec:
    """Resolve a parsed config document; report all field errors at once."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raw = {}
        errors.append("spec: top level must be a JSON object")

    out_dir = raw.get("out_dir")
    _expect(errors, isinstance(out_dir, str) and out_dir, "out_dir: required string")

    data = raw.get("data")
    source, stocks, length, shared, csv_paths = "synthetic", 5, 600, 0.7, ()
    if not isinstance(data, dict):
        errors.append("data: required object with a 'source' field")
    else:
        source = data.get("source")
        if source not in ("synthetic", "csv"):
            errors.append("data.source: must be 'synthetic' or 'csv'")
        elif source == "synthetic":
            stocks = data.get("stocks", 5)
            length = data.get("length", 600)
            shared = data.get("shared_strength", 0.7)
            _expect(errors, type(stocks) is int and stocks >= 1,
                    "data.stocks: integer >= 1 required")
            _expect(errors, type(length) is int and length >= 64,
                    "data.length: integer >= 64 required")
            _expect(errors, _number(shared) and 0.0 <= shared <= 1.0,
                    "data.shared_strength: number in [0, 1] required")
        else:
            paths = data.get("paths")
            if not (isinstance(paths, list) and paths):
                errors.append("data.paths: non-empty list of CSV files required")
            else:
                resolved, owners = [], {}
                for p in paths:
                    if not isinstance(p, str):
                        errors.append(f"data.paths: file path string required, got {p!r}")
                        continue
                    candidate = Path(p)
                    if base_dir is not None and not candidate.is_absolute():
                        candidate = base_dir / candidate
                    if not candidate.is_file():
                        errors.append(f"data.paths: file not found: {p}")
                    resolved.append(str(candidate))
                    sid = stock_id_from_path(p)
                    if sid in owners:
                        errors.append(f"data.paths: {owners[sid]} and {p} both load as "
                                      f"stock id {sid!r}")
                    owners.setdefault(sid, p)
                csv_paths = tuple(resolved)
                stocks = len(csv_paths)

    models = raw.get("models")
    model_kinds = ()
    if not (isinstance(models, list) and models):
        errors.append("models: non-empty list of model kinds required")
    else:
        for kind in models:
            if kind in OUT_OF_SCOPE_KINDS:
                errors.append(
                    f"models: {kind!r} is recognized but out of scope; "
                    f"supported kinds: {', '.join(MODEL_KINDS)}"
                )
            elif kind not in MODEL_KINDS:
                errors.append(
                    f"models: unknown kind {kind!r}; supported: "
                    f"{', '.join(MODEL_KINDS)} (out of scope: {', '.join(OUT_OF_SCOPE_KINDS)})"
                )
        model_kinds = tuple(models)

    strategies = raw.get("strategies")
    strategy_set = ()
    if not (isinstance(strategies, list) and strategies):
        errors.append("strategies: non-empty list required ('normal', 'csti')")
    else:
        for s in strategies:
            if s not in STRATEGIES:
                errors.append(f"strategies: unknown strategy {s!r}; supported: normal, csti")
        strategy_set = tuple(strategies)

    features = raw.get("features", list(FEATURE_SETS))
    feature_sets = ()
    if not (isinstance(features, list) and features):
        errors.append("features: non-empty list required")
    else:
        for f in features:
            if f not in FEATURE_SETS:
                errors.append(
                    f"features: unknown feature set {f!r}; supported: "
                    f"{', '.join(FEATURE_SETS)}"
                )
        feature_sets = tuple(features)

    window = _section(errors, raw, "window", "object (or null) required")
    lookback = window.get("lookback", 16)
    horizon = window.get("horizon", 1)
    fractions = window.get("fractions", [0.7, 0.1, 0.2])
    _expect(errors, type(lookback) is int and lookback >= 4,
            "window.lookback: integer >= 4 required")
    _expect(errors, type(horizon) is int and horizon >= 1,
            "window.horizon: integer >= 1 required")
    if not (isinstance(fractions, list) and len(fractions) == 3
            and all(_number(x) and x > 0 for x in fractions)
            and abs(sum(fractions) - 1.0) <= 1e-9):
        errors.append("window.fractions: three positive numbers summing to 1 required")
        fractions = [0.7, 0.1, 0.2]

    training = _section(errors, raw, "training", "object (or null) required")
    def num(key, default, check, message):
        value = training.get(key, default)
        if not (_number(value) and check(value)):
            errors.append(f"training.{key}: {message}")
            return default
        return value

    merge_rounds = num("merge_rounds", 50, lambda v: v >= 0 and int(v) == v, "integer >= 0 required")
    finetune_epochs = num("finetune_epochs", 50, lambda v: v >= 0 and int(v) == v, "integer >= 0 required")
    local_epochs = num("local_epochs_per_round", 1, lambda v: v >= 1 and int(v) == v, "integer >= 1 required")
    learning_rate = num("learning_rate", 0.01, lambda v: v > 0, "must be finite and > 0")
    momentum = num("momentum", 0.9, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
    alpha = num("alpha", 1.0, lambda v: v > 0, "must be finite and > 0")
    prox_weight = num("lambda", 0.01, lambda v: v >= 0, "must be finite and >= 0")
    batch_size = num("batch_size", 64, lambda v: v >= 1 and int(v) == v, "integer >= 1 required")
    epochs_total = training.get("epochs_total")
    if epochs_total is not None and not (type(epochs_total) is int and epochs_total >= 1):
        errors.append("training.epochs_total: integer >= 1 (or omitted) required")
        epochs_total = None
    merge_weights = training.get("merge_weights")
    if merge_weights is not None:
        if not (isinstance(merge_weights, list)
                and all(_number(w) and w >= 0
                        for w in merge_weights) and sum(merge_weights) > 0):
            errors.append("training.merge_weights: list of finite numbers >= 0 with a "
                          "positive sum (or null) required")
            merge_weights = None
        else:
            merge_weights = tuple(float(w) for w in merge_weights)
    shared_init = training.get("shared_init", True)
    if not isinstance(shared_init, bool):
        errors.append("training.shared_init: boolean required")
        shared_init = True

    seed = raw.get("seed", 0)
    _expect(errors, type(seed) is int and seed >= 0, "seed: integer >= 0 required")
    jobs = raw.get("jobs", 1)
    _expect(errors, type(jobs) is int and jobs >= 1, "jobs: integer >= 1 required")
    normal_eval = raw.get("normal_eval", "final")
    _expect(errors, normal_eval in NORMAL_EVAL_MODES,
            "normal_eval: 'final' or 'snapshot' required")
    denorm = raw.get("denormalized_metrics", False)
    _expect(errors, isinstance(denorm, bool), "denormalized_metrics: boolean required")
    model_hyper = _section(errors, raw, "model_hyper",
                           "object mapping kind -> hyperparameters (or null) required")
    window_ok = type(lookback) is int and lookback >= 4 and type(horizon) is int and horizon >= 1
    for kind in (k for k in MODEL_KINDS if window_ok and k in model_kinds):
        try:  # the checks build_model makes, before any cell trains
            for n_features in {3 if f == "with_sentiment" else 2 for f in feature_sets}:
                _resolve(kind, lookback, horizon, n_features, model_hyper.get(kind) or {})
        except CstiError as err:
            errors.append(f"model_hyper.{kind}: {err}")

    if errors:
        raise SpecValidationError(errors)
    return ExperimentSpec(
        out_dir=out_dir,
        source=source,
        seed=seed,
        stocks=stocks,
        length=length,
        shared_strength=float(shared),
        csv_paths=csv_paths,
        feature_sets=feature_sets,
        model_kinds=model_kinds,
        strategies=strategy_set,
        lookback=lookback,
        horizon=horizon,
        fractions=tuple(float(f) for f in fractions),
        merge_rounds=int(merge_rounds),
        finetune_epochs=int(finetune_epochs),
        local_epochs_per_round=int(local_epochs),
        learning_rate=float(learning_rate),
        momentum=float(momentum),
        alpha=float(alpha),
        prox_weight=float(prox_weight),
        batch_size=int(batch_size),
        merge_weights=merge_weights,
        shared_init=shared_init,
        epochs_total=epochs_total,
        jobs=jobs,
        normal_eval=normal_eval,
        denormalized_metrics=denorm,
        model_hyper=model_hyper,
    )


def _read_spec(path: Path):
    """Parse a spec file; a blank file is an empty document."""
    if not path.is_file():
        raise SpecValidationError([f"spec file not found: {path}"])
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SpecValidationError([f"spec is not UTF-8 text: {err}"]) from err
    if not text.strip():
        return {}
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecValidationError([f"spec is not valid JSON: {err}"]) from err


def validate_spec(path) -> ExperimentSpec:
    """Load and validate a JSON spec file."""
    path = Path(path)
    return validate_spec_dict(_read_spec(path), base_dir=path.parent)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def save_round_checkpoint(round_index: int, pvec: ParamVector, path) -> None:
    """Global parameters after one merge round, as a ``round`` container.

    The header adds the round index (container layout in ``numerics``).
    """
    save_container(path, "round", pvec, round=round_index)


def load_round_checkpoint(path) -> tuple[int, ParamVector]:
    """(round index, global parameters) of a ``save_round_checkpoint`` file.

    Any bad file, a round index other than an integer >= 0 included, raises
    ``ContractViolation`` naming ``path``.
    """
    header, pvec = load_container(path, "round", ("round",))
    round_index = header["round"]
    if type(round_index) is not int or round_index < 0:
        raise ContractViolation(f"{path}: round index {round_index!r} is not an integer >= 0")
    return round_index, pvec


def _load_market(spec: ExperimentSpec) -> list[StockSeries]:
    if spec.source == "synthetic":
        return generate_synthetic_market(
            spec.stocks, spec.length, spec.shared_strength, spec.seed
        )
    min_rows = spec.lookback + spec.horizon + 1
    want_sentiment = "with_sentiment" in spec.feature_sets
    return [
        load_csv(p, with_sentiment=want_sentiment, min_rows=min_rows)
        for p in spec.csv_paths
    ]


def _prepare_feature_set(market, feature_set, spec):
    """Normalize and window each stock for one feature configuration."""
    train_sets, test_sets, normalizers = [], [], []
    for series in market:
        if feature_set == "without_sentiment":
            series = series.drop_sentiment()
        elif not series.has_sentiment:
            raise SpecValidationError(
                [f"{series.stock_id}: sentiment column required for feature set "
                 "'with_sentiment'"]
            )
        params = fit_normalizer(series, spec.fractions[0])
        normed = normalize(series, params)
        train_sets.append(make_windows(normed, spec.lookback, spec.horizon,
                                       "train", spec.fractions))
        test_sets.append(make_windows(normed, spec.lookback, spec.horizon,
                                      "test", spec.fractions))
        normalizers.append(params)
    return train_sets, test_sets, normalizers


def _run_cell(spec, kind, strategy, train_sets, test_sets, normalizers):
    norm = normalizers if spec.denormalized_metrics else None
    hyper = spec.model_hyper.get(kind)
    if strategy == "csti":
        result = run_csti(train_sets, kind, spec.csti_config(), hyper=hyper,
                          jobs=spec.jobs)
        for r, (prev, cur) in enumerate(
            zip([None] + result.trace.round_globals[:-1], result.trace.round_globals),
            start=1,
        ):
            delta = (np.linalg.norm(cur.values - prev.values)
                     if prev is not None else float("nan"))
            loss = result.trace.global_loss_per_round[r - 1]
            print(f"  round {r:3d}  mean_local_loss {loss:.6f}  merge_delta {delta:.3e}",
                  file=sys.stderr)
        report = evaluate(result.finetuned, test_sets, norm)
        return report, result.trace, result
    result = run_normal(
        train_sets, kind, spec.normal_budget(),
        learning_rate=spec.learning_rate, momentum=spec.momentum,
        batch_size=spec.batch_size, seed=spec.seed,
        hyper=hyper,
    )
    if spec.normal_eval == "snapshot":
        models = result.snapshots
    else:
        models = [result.snapshots[-1]] * len(test_sets)
    report = evaluate(models, test_sets, norm)
    return report, result.trace, result


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the whole grid; returns {cell key: macro metrics}.

    Each completed cell's files are on disk before the next cell starts,
    so partial results survive a failure in a later cell.
    """
    out_root = Path(spec.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    market = _load_market(spec)

    prepared = {}
    for feature_set in spec.feature_sets:
        prepared[feature_set] = _prepare_feature_set(market, feature_set, spec)

    summary = {}
    for kind in spec.model_kinds:
        for strategy in spec.strategies:
            for feature_set in spec.feature_sets:
                cell = f"{kind}/{strategy}/{feature_set}"
                print(f"[cell] {cell}", file=sys.stderr)
                train_sets, test_sets, normalizers = prepared[feature_set]
                try:
                    report, trace, result = _run_cell(
                        spec, kind, strategy, train_sets, test_sets, normalizers
                    )
                    cell_dir = out_root / kind / strategy / feature_set
                    _write_cell(spec, cell, cell_dir, report, trace, result, test_sets)
                except Exception as err:
                    print(f"[cell {cell}] failed: {err}", file=sys.stderr)
                    raise
                summary[cell] = report.macro
    _write_summary(spec, summary, out_root / "summary.csv")
    return summary


def _write_cell(spec, cell, cell_dir, report, trace, result, test_sets):
    cell_dir.mkdir(parents=True, exist_ok=True)
    # keyed by lineage, so the file does not depend on the order of the stocks
    if isinstance(result, CstiResult):
        steps = dict(zip((ds.stock_id for ds in test_sets), trace.lineage_update_steps))
    else:
        (total,) = trace.lineage_update_steps
        steps = {"global": total}
    document = {
        "cell": cell,
        "config": spec.echo(),
        "evaluation": report.as_dict(),
        "training": {
            "lineage_update_steps": steps,
            "global_loss_per_round": [float(x) for x in trace.global_loss_per_round],
        },
    }
    write_report_json(document, cell_dir / "report.json")
    write_trace_csv(trace, cell_dir / "trace.csv")
    for stock_id, series in report.series.items():
        export_regression_series(
            stock_id, series["predicted"], series["actual"],
            cell_dir / f"regression-{stock_id}.csv", t=series["t"],
        )
    ckpt_dir = cell_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    if isinstance(result, CstiResult):
        for r, pvec in enumerate(trace.round_globals, start=1):
            save_round_checkpoint(r, pvec, ckpt_dir / f"round-{r:04d}.pvec")
        for ds, model in zip(test_sets, result.finetuned):
            save_checkpoint(model, ckpt_dir / f"finetuned-{ds.stock_id}.ckpt")
    if isinstance(result, NormalResult):
        for k, model in enumerate(result.snapshots):
            save_checkpoint(model, ckpt_dir / f"snapshot-{k:02d}.ckpt")


def _write_summary(spec, summary, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model,strategy,features,mae,mse,r2\n")
        for cell in sorted(summary):
            kind, strategy, feature_set = cell.split("/")
            m = summary[cell]
            fh.write(
                f"{kind},{strategy},{feature_set},"
                f"{m['mae']:.9g},{m['mse']:.9g},{m['r2']:.9g}\n"
            )


# ---------------------------------------------------------------------------
# command line front-end
# ---------------------------------------------------------------------------

def _apply_overrides(raw: dict, args) -> dict:
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    if args.strategy:
        raw["strategies"] = args.strategy.split(",")
    if args.model:
        raw["models"] = args.model.split(",")
    if args.stocks is not None and isinstance(raw.setdefault("data", {}), dict):
        data = raw["data"]
        paths = data.get("paths")
        if data.get("source") != "csv":
            data["stocks"] = args.stocks
        elif isinstance(paths, list):
            if not 1 <= args.stocks <= len(paths):
                raise SpecValidationError(
                    [f"--stocks: {args.stocks} is not in 1..{len(paths)}, the number of data.paths"])
            data["paths"] = paths[: args.stocks]
    if args.jobs is not None:
        raw["jobs"] = args.jobs
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="csti",
        description="Run cross-stock training experiments from a JSON spec.",
    )
    parser.add_argument("spec", help="path to the experiment spec (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override spec seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--strategy", default=None,
                        help="comma-separated strategies (normal,csti)")
    parser.add_argument("--model", default=None,
                        help="comma-separated model kinds")
    parser.add_argument("--stocks", type=int, default=None,
                        help="override stock group size")
    parser.add_argument("--jobs", type=int, default=None,
                        help="max stocks in one kernel call (results do not depend on it)")
    args = parser.parse_args(argv)

    try:
        spec_path = Path(args.spec)
        raw = _read_spec(spec_path)
        if isinstance(raw, dict):
            raw = _apply_overrides(raw, args)
        spec = validate_spec_dict(raw, base_dir=spec_path.parent)
        run_experiment(spec)
    except SpecValidationError as err:
        for message in err.errors:
            print(f"spec error: {message}", file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 3
    except CstiError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0
