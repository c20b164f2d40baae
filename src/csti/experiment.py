"""Config-driven experiment runner: strategies x model kinds x feature sets.

The spec file is JSON, and ``_FIELDS`` is its schema: one row per field, with
its path, attribute, check and message. A training setting resolves to the
attribute and default of ``CstiConfig``, which the spec holds as ``training``,
every other field to ``ExperimentSpec``'s. A row's rule is the object its entry point
checks with: ``training.SETTINGS`` (with ``_joint_problems`` and ``CstiConfig.normal_epochs``)
and ``JOBS``, ``data``'s market and window rules, ``models.LOOKBACK``. One walker
checks a document against the table, and ``ExperimentSpec.echo`` rebuilds the
document from it. Every cell of the grid trains, evaluates on held-out test
windows and writes a report bundle under <out>/<model>/<strategy>/<features>/;
a summary table collects the macro metrics of all cells.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, data
from .data import (
    StockSeries,
    fit_normalizer,
    generate_synthetic_market,
    make_windows,
    normalize,
    split_bounds,
    stock_id_from_path,
)
from .errors import (
    ContractViolation,
    CstiError,
    DivergenceError,
    SpecValidationError,
)
from .metrics import export_regression_series, write_report_json
from .models import LOOKBACK, MODEL_KINDS, OUT_OF_SCOPE_KINDS, _resolve, save_checkpoint
from .numerics import (BOOLEAN, ParamVector, atomic_open, check, integer, load_container,
                       save_container)
from .training import (JOBS, SETTINGS, CstiConfig, CstiResult, NormalResult, _joint_problems,
                       evaluate, run_csti, run_normal, write_trace_csv)

FEATURE_SETS = ("with_sentiment", "without_sentiment")
STRATEGIES = ("normal", "csti")
NORMAL_EVAL_MODES = ("final", "snapshot")


@dataclass
class ExperimentSpec:
    """Fully resolved experiment description; ``training`` configures both strategies,
    its ``stocks`` counts the synthetic stocks or CSV files and its ``seed`` also
    seeds the synthetic market."""

    out_dir: str
    source: str  # "synthetic" | "csv"
    training: CstiConfig
    # synthetic source
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
    # execution: the most stocks in one kernel call, None for every stock;
    # the optimizer step always spans every stock, and results do not
    # depend on this value
    jobs: int | None = None
    normal_eval: str = "final"
    denormalized_metrics: bool = False
    model_hyper: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """The spec as a nested document, one entry per echoed row of ``_FIELDS``."""
        doc = {"version": __version__}
        for row in _FIELDS:
            if row.echoed and row.source in (None, self.source):
                section, _, key = row.path.rpartition(".")
                value = getattr(self.training if row.attr in SETTINGS else self, row.attr)
                (doc.setdefault(section, {}) if section else doc)[key] = (
                    list(value) if isinstance(value, tuple) else value)
        if self.model_hyper:
            doc["model_hyper"] = self.model_hyper
        return doc


def _non_empty_list(value) -> bool:
    return isinstance(value, list) and len(value) > 0


def _unknown(path, noun, supported, out_of_scope=()):
    """(entries, base_dir) -> a message for each entry outside ``supported``, and one for
    each entry listed again, which would run its cells again over their own files."""
    listed = ", ".join(supported)
    note = f" (out of scope: {', '.join(out_of_scope)})" if out_of_scope else ""
    return lambda entries, _base_dir: [
        f"{path}: {x!r} is recognized but out of scope; supported kinds: {listed}"
        if x in out_of_scope else f"{path}: unknown {noun} {x!r}; supported: {listed}{note}"
        for x in entries if x not in supported] + [
        f"{path}: {noun} {x!r} is listed more than once"
        for i, x in enumerate(entries) if x in entries[:i] and x not in entries[i + 1:]]


def _path_errors(paths, base_dir):
    errors, owners = [], {}
    for p in paths:
        if not isinstance(p, str):
            errors.append(f"data.paths: file path string required, got {p!r}")
            continue
        if not Path(base_dir or "", p).is_file():  # a relative path is read from base_dir
            errors.append(f"data.paths: file not found: {p}")
        sid = stock_id_from_path(p)
        if sid in owners:
            errors.append(f"data.paths: {owners[sid]} and {p} both load as stock id {sid!r}")
        owners.setdefault(sid, p)
    return errors


class _Field(NamedTuple):
    path: str  # "section.key", or "key" at the top level
    attr: str  # the CstiConfig or else ExperimentSpec attribute it resolves to
    check: Callable  # value -> bool
    message: str  # the error after "<path>: " when the check fails
    convert: Callable = lambda value: value  # a checked value -> the attribute's value
    items: Callable | None = None  # (checked list, base_dir) -> messages for its entries
    source: str | None = None  # read and echoed only for this data source
    required: bool = False  # omitted, it fails its check instead of taking the default
    echoed: bool = True


_FIELDS = (
    _Field("out_dir", "out_dir", lambda v: isinstance(v, str) and v != "", "required string",
           required=True),
    _Field("data.source", "source", lambda v: v in ("synthetic", "csv"),
           "must be 'synthetic' or 'csv'", required=True),
    _Field("data.stocks", "stocks", *SETTINGS["stocks"], source="synthetic"),
    _Field("data.length", "length", *data.LENGTH, source="synthetic"),
    _Field("data.shared_strength", "shared_strength", *data.SHARED_STRENGTH, source="synthetic"),
    _Field("data.paths", "csv_paths", _non_empty_list, "non-empty list of CSV files required",
           items=_path_errors, source="csv", required=True),
    _Field("models", "model_kinds", _non_empty_list, "non-empty list of model kinds required",
           tuple, _unknown("models", "kind", MODEL_KINDS, OUT_OF_SCOPE_KINDS), required=True),
    _Field("strategies", "strategies", _non_empty_list,
           "non-empty list required ('normal', 'csti')",
           tuple, _unknown("strategies", "strategy", STRATEGIES), required=True),
    _Field("features", "feature_sets", _non_empty_list, "non-empty list required", tuple,
           _unknown("features", "feature set", FEATURE_SETS)),
    _Field("window.lookback", "lookback", *LOOKBACK),
    _Field("window.horizon", "horizon", *data.HORIZON),
    _Field("window.fractions", "fractions", *data.FRACTIONS),
    # the training section: every other CstiConfig field, under its own name but prox_weight
    *(_Field(f"training.{'lambda' if attr == 'prox_weight' else attr}", attr, *rule)
      for attr, rule in SETTINGS.items() if attr not in ("stocks", "seed")),
    _Field("seed", "seed", *SETTINGS["seed"]),
    _Field("jobs", "jobs", *JOBS, echoed=False),
    _Field("normal_eval", "normal_eval", lambda v: v in NORMAL_EVAL_MODES,
           "'final' or 'snapshot' required"),
    _Field("denormalized_metrics", "denormalized_metrics", *BOOLEAN),
)
_BUDGET = {"merge_rounds", "local_epochs_per_round", "finetune_epochs", "epochs_total"}
_DEFAULTS = {f.name: f.default for f in (*fields(ExperimentSpec), *fields(CstiConfig))}
_DEFAULTS["stocks"] = 5  # the synthetic market's size
# the keys each section ("" for the top level) may hold: its _FIELDS paths, the sections,
# the version ``echo`` writes and model_hyper, whose keys are the kinds; every other key
# fails as an unknown field
_PATHS = [row.path.rpartition(".") for row in _FIELDS]
_KEYS = {name: {key for section, _, key in _PATHS if section == name} for name, _, _ in _PATHS}
_KEYS[""] |= {name for name, _, _ in _PATHS if name} | {"version", "model_hyper"}
_KEYS["model_hyper"] = set(MODEL_KINDS)
_OPTIONAL_SECTIONS = {"window": "object (or null) required",
                      "training": "object (or null) required",
                      "model_hyper": "object mapping kind -> hyperparameters (or null) required"}
_JSON_TYPES = {bool: "a boolean", int: "a number", float: "a number", str: "a string",
               list: "an array"}


def _section(errors, raw, name):
    """The object under ``name``: None for a bad ``data``, {} for an omitted or bad other one."""
    value = raw.get(name)
    if isinstance(value, dict):
        return value
    if name not in _OPTIONAL_SECTIONS:
        errors.append(f"{name}: required object with a 'source' field")
        return None
    if value is not None:
        got = _JSON_TYPES.get(type(value), "a value")
        errors.append(f"{name}: {_OPTIONAL_SECTIONS[name]}, got {got}")
    return {}


def validate_spec_dict(raw: dict, base_dir: Path | None = None) -> ExperimentSpec:
    """Resolve a parsed config document; report all field errors at once.

    Walks ``_FIELDS`` in order. A field that fails its check stays unresolved,
    and a rule that spans fields is checked once every field it reads resolved.
    A key that no ``_FIELDS`` path names, in any section, is an unknown field.
    Once every check passed, the training settings become one ``CstiConfig``.
    """
    errors: list[str] = []
    if not isinstance(raw, dict):
        raw = {}
        errors.append("spec: top level must be a JSON object")
    values, sections = {}, {"": raw}
    for row in _FIELDS:
        name, _, key = row.path.rpartition(".")
        if name not in sections:
            sections[name] = _section(errors, raw, name)
        doc = sections[name]
        if doc is None or row.source not in (None, values.get("source")):
            continue
        if key not in doc and not row.required:
            values[row.attr] = _DEFAULTS[row.attr]
        elif row.check(doc.get(key)):
            values[row.attr] = row.convert(doc[key])
            if row.items:
                errors.extend(row.items(doc[key], base_dir))
        else:
            errors.append(f"{row.path}: {row.message}")
    if "csv_paths" in values:
        values["csv_paths"] = tuple(str(Path(base_dir or "", p))
                                    for p in values["csv_paths"] if isinstance(p, str))
        values["stocks"] = len(values["csv_paths"])

    model_hyper = sections["model_hyper"] = _section(errors, raw, "model_hyper")
    for name, doc in sections.items():  # doc is None for a bad data section, reported above
        errors.extend(f"{name}{'.' if name else ''}{key}: unknown field"
                      for key in doc or () if key not in _KEYS[name])
    if "lookback" in values and "horizon" in values:
        n_features = {3 if f == "with_sentiment" else 2 for f in values.get("feature_sets", ())}
        for kind in (k for k in MODEL_KINDS if k in values.get("model_kinds", ())):
            try:  # the checks build_model makes, before any cell trains
                for n in n_features:
                    _resolve(kind, values["lookback"], values["horizon"], n,
                             model_hyper.get(kind) or {})
            except CstiError as err:
                errors.append(f"model_hyper.{kind}: {err}")

    if values.get("source") == "synthetic" and values.keys() >= {"length", "lookback", "horizon",
                                                                  "fractions"}:
        needed = values["lookback"] + values["horizon"]
        try:
            bounds = split_bounds(values["length"], values["fractions"])
        except OverflowError:  # a length beyond the float range has no split sizes
            errors.append("data.length: integer >= 64 within the float range required")
        else:
            for split in ("train", "test"):  # the splits a cell windows
                rows = bounds[split][1] - bounds[split][0]
                if rows < needed:
                    errors.append(f"window.lookback: the {split} split of data.length "
                                  f"{values['length']} holds {rows} rows, fewer than "
                                  f"lookback + horizon = {needed}")
                    break

    errors.extend(f"training.{problem}" for problem in _joint_problems(values))
    if values.get("stocks") and "normal" in values.get("strategies", ()) and (
            values.keys() >= _BUDGET):
        try:  # the normal budget, which reads these counts and no other setting
            CstiConfig(values["stocks"], **{n: values[n] for n in _BUDGET}).normal_epochs()
        except ContractViolation as err:
            errors.append(f"training.{err}")

    if errors:
        raise SpecValidationError(errors)
    training = CstiConfig(**{name: values.pop(name) for name in SETTINGS})
    return ExperimentSpec(**values, training=training, model_hyper=model_hyper)


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
    except (ValueError, RecursionError) as err:  # also an integer past the digit limit
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
    try:
        return check("round index", integer(0), header["round"]), pvec
    except ContractViolation as err:
        raise ContractViolation(f"{path}: {err}") from None


def _load_market(spec: ExperimentSpec) -> list[StockSeries]:
    if spec.source == "synthetic":
        return generate_synthetic_market(
            spec.training.stocks, spec.length, spec.shared_strength, spec.training.seed
        )
    min_rows = spec.lookback + spec.horizon + 1
    want_sentiment = "with_sentiment" in spec.feature_sets
    # looked up on ``data``, so that a wrapper set there sees every load
    return [data.load_csv_detailed(p, with_sentiment=want_sentiment, min_rows=min_rows)[0]
            for p in spec.csv_paths]


def _prepare_feature_set(market, feature_set, spec):
    """Normalize and window each stock for one feature configuration.

    ``_load_market`` gave every series a sentiment column if a set wants one."""
    train_sets, test_sets, normalizers = [], [], []
    for series in market:
        if feature_set == "without_sentiment":
            series = series.drop_sentiment()
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
        result = run_csti(train_sets, kind, spec.training, hyper=hyper, jobs=spec.jobs)
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
    result = run_normal(train_sets, kind, spec.training, hyper=hyper)
    if spec.normal_eval == "snapshot":
        models = result.snapshots
    else:
        models = [result.snapshots[-1]] * len(test_sets)
    report = evaluate(models, test_sets, norm)
    return report, result.trace, result


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run the whole grid; returns {cell key: macro metrics}.

    Each completed cell's files are on disk before the next cell starts,
    so partial results survive a failure in a later cell. Each cell makes its
    own directory, so a run whose first cell fails leaves no ``out_dir``.
    """
    market = _load_market(spec)
    prepared = {}
    for feature_set in spec.feature_sets:
        prepared[feature_set] = _prepare_feature_set(market, feature_set, spec)
    out_root = Path(spec.out_dir)

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
    _write_summary(summary, out_root / "summary.csv")
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
        export_regression_series(series["predicted"], series["actual"],
                                 cell_dir / f"regression-{stock_id}.csv", t=series["t"])
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


def _write_summary(summary, path):
    with atomic_open(path, encoding="utf-8") as fh:
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

# (command-line flag, ``_FIELDS`` path) of the overrides that replace one top-level field
_OVERRIDES = (("seed", "seed"), ("out", "out_dir"), ("strategy", "strategies"),
              ("model", "models"), ("jobs", "jobs"))


def _apply_overrides(raw: dict, args) -> dict:
    """``raw`` with every given flag written over its field; a list field splits on commas."""
    checks = {row.path: row.check for row in _FIELDS}
    for flag, path in _OVERRIDES:
        value = getattr(args, flag)
        if value is not None:
            raw[path] = value.split(",") if checks[path] is _non_empty_list else value
    if args.stocks is not None and isinstance(raw.setdefault("data", {}), dict):
        section = raw["data"]
        paths = section.get("paths")
        if section.get("source") != "csv":
            section["stocks"] = args.stocks
        elif isinstance(paths, list):
            if not 1 <= args.stocks <= len(paths):
                raise SpecValidationError(
                    [f"--stocks: {args.stocks} is not in 1..{len(paths)}, the number of data.paths"])
            section["paths"] = paths[: args.stocks]
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
                        help="max stocks in one texfilter or frets kernel call, at least "
                             "1; by default every stock, which holds every stock's kernel "
                             "buffers at once (a 24-stock texfilter run with 20 merge rounds "
                             "and 20 fine-tune epochs peaks at 1.2 times the RSS it reaches "
                             "at 2). It does not cap dlinear or paifilter calls, which hold "
                             "no buffers. Results do not depend on it")
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
