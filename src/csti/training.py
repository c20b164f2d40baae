"""Three-phase merge protocol and the sequential baseline.

Phase 1 trains one model per stock in parallel, phase 2 averages their
parameter vectors into a global model and repeats, phase 3 fine-tunes
the global model per stock with a proximal pull toward it. The baseline
("normal") strategy trains a single model across stocks sequentially.

Determinism contract: every local trainer draws its shuffling seed from
(config seed, phase, round, stock identity), so results are bit-identical
regardless of execution order, thread count, or the position of a stock
in the group list.
"""

from __future__ import annotations

import csv
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import metrics as metrics_mod
from .data import WindowedDataset, denormalize_close
from .errors import (
    ContractViolation,
    DivergenceError,
    MergeIncompatibilityError,
)
from .models import ForecastModel, _check_batch, build_model
from .numerics import ParamVector, axpy_merge, check_step_settings, momentum_step
# not called here: the benchmark's traced run wraps training.sgd_step by name
from .numerics import sgd_step  # noqa: F401

DIVERGENCE_GUARD = 1e6

# seed-derivation tags, one per training context
_TAG_INIT = 0
_TAG_MERGE = 1
_TAG_FINETUNE = 2
_TAG_NORMAL = 3


def derive_seed(base_seed: int, tag: int, round_index: int, stock_id: str = "") -> int:
    """Stable per-trainer seed keyed by stock identity, not list position."""
    key = zlib.crc32(stock_id.encode("utf-8"))
    seq = np.random.SeedSequence((int(base_seed), tag, round_index, key))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class CstiConfig:
    """Protocol hyperparameters; defaults follow the benchmark protocol."""

    stocks: int
    merge_rounds: int = 50
    finetune_epochs: int = 50
    local_epochs_per_round: int = 1
    learning_rate: float = 0.01
    momentum: float = 0.9
    alpha: float = 1.0
    prox_weight: float = 0.01
    merge_weights: tuple = None
    batch_size: int = 64
    seed: int = 0
    shared_init: bool = True

    def __post_init__(self):
        if self.stocks < 1:
            raise ContractViolation("stocks must be >= 1")
        if self.merge_rounds < 0 or self.finetune_epochs < 0:
            raise ContractViolation("round/epoch counts must be >= 0")
        if self.local_epochs_per_round < 1:
            raise ContractViolation("local_epochs_per_round must be >= 1")
        if self.learning_rate <= 0:
            raise ContractViolation("learning_rate must be > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ContractViolation("momentum must lie in [0, 1)")
        if self.alpha <= 0:
            raise ContractViolation("alpha must be > 0")
        if self.prox_weight < 0:
            raise ContractViolation("prox_weight must be >= 0")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if self.merge_weights is not None:
            w = tuple(float(x) for x in self.merge_weights)
            if len(w) != self.stocks:
                raise ContractViolation("merge_weights must have one entry per stock")
            if not all(np.isfinite(w)):
                raise ContractViolation("merge_weights must be finite")
            object.__setattr__(self, "merge_weights", w)

    @property
    def epochs_budget(self) -> int:
        """Per-lineage epochs; the normal strategy gets the same total."""
        return self.merge_rounds * self.local_epochs_per_round + self.finetune_epochs

    def weights(self) -> tuple:
        return self.merge_weights if self.merge_weights is not None else (1.0,) * self.stocks


@dataclass
class TraceRow:
    phase: str  # "merge" | "finetune" | "normal"
    round_index: int  # merge round or epoch number, 1-based
    stock_id: str  # stock id or "global"
    data_loss: float
    prox_penalty: float
    wall_ms: float


@dataclass
class TrainingTrace:
    """Loss curves, per-round global parameters and step counters."""

    rows: list = field(default_factory=list)
    global_loss_per_round: list = field(default_factory=list)
    round_globals: list = field(default_factory=list)  # ParamVector per merge round
    lineage_update_steps: list = field(default_factory=list)
    phase_wall_ms: dict = field(default_factory=dict)

    def add(self, phase, round_index, stock_id, data_loss, prox_penalty, wall_ms):
        if not (np.isfinite(data_loss) and data_loss >= 0):
            raise ContractViolation("trace losses must be finite and >= 0")
        self.rows.append(
            TraceRow(phase, round_index, stock_id, data_loss, prox_penalty, wall_ms)
        )


def write_trace_csv(trace: TrainingTrace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "round", "stock_id", "data_loss", "proximal_penalty", "wall_ms"])
        for row in trace.rows:
            writer.writerow([
                row.phase, row.round_index, row.stock_id,
                f"{row.data_loss:.9g}", f"{row.prox_penalty:.9g}", f"{row.wall_ms:.3f}",
            ])


class LocalTrainResult(NamedTuple):
    model: ForecastModel
    epoch_losses: list  # mean data-term loss per epoch
    prox_penalties: list  # lambda * ||theta - anchor||^2 at each epoch end
    update_steps: int
    epoch_wall_ms: list


def train_local(model: ForecastModel, dataset: WindowedDataset, epochs: int,
                learning_rate: float, momentum: float, batch_size: int = 64,
                anchor: ParamVector | None = None, prox_weight: float = 0.0,
                seed: int = 0) -> LocalTrainResult:
    """Minibatch SGD-momentum over seeded shuffles of one stock's windows.

    Theta and the momentum velocity are two flat float64 buffers owned by
    this call and updated in place; ``model`` supplies the starting theta
    and serves only as the kernel ``loss_and_gradient(theta, ...)``. The
    dataset's shapes are checked against the model once, up front; after
    every update theta must be finite, and the divergence guard bounds
    every batch loss. Either failure raises DivergenceError naming the
    stock. One model is built from the final theta.

    With an anchor, the gradient gains the proximal term
    2 * prox_weight * (theta - anchor); the term is skipped entirely at
    prox_weight == 0 so anchored and unanchored runs are bit-identical.
    """
    if epochs < 1:
        raise ContractViolation("epochs must be >= 1")
    check_step_settings(learning_rate, momentum)
    params = model.export_params()
    if anchor is not None and anchor.layout != params.layout:
        raise MergeIncompatibilityError("anchor layout does not match model")
    use_prox = anchor is not None and prox_weight > 0.0
    inputs, targets = _check_batch(dataset.inputs, dataset.targets,
                                   model.lookback, model.horizon, model.n_features)

    rng = np.random.default_rng(seed)
    theta = params.values.copy()
    velocity = np.zeros_like(theta)
    n = dataset.n_windows

    epoch_losses, prox_penalties, epoch_wall = [], [], []
    steps = 0
    for _ in range(epochs):
        tick = time.perf_counter()
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss_val, grad = model.loss_and_gradient(theta, inputs[idx], targets[idx])
            if not np.isfinite(loss_val) or loss_val > DIVERGENCE_GUARD:
                raise DivergenceError(
                    f"{dataset.stock_id}: batch loss {loss_val:.3e} exceeded guard",
                    stock_id=dataset.stock_id,
                )
            if use_prox:
                grad += 2.0 * prox_weight * (theta - anchor.values)
            momentum_step(theta, velocity, grad, learning_rate, momentum)
            if not np.isfinite(theta).all():
                raise DivergenceError(
                    f"{dataset.stock_id}: parameters became non-finite at step {steps + 1}",
                    stock_id=dataset.stock_id,
                )
            steps += 1
            batch_losses.append(loss_val)
        epoch_losses.append(float(np.mean(batch_losses)))
        if use_prox:
            delta = theta - anchor.values
            prox_penalties.append(float(prox_weight * np.dot(delta, delta)))
        else:
            prox_penalties.append(0.0)
        epoch_wall.append((time.perf_counter() - tick) * 1000.0)

    return LocalTrainResult(
        model=model.import_params(params.replace(theta)),
        epoch_losses=epoch_losses,
        prox_penalties=prox_penalties,
        update_steps=steps,
        epoch_wall_ms=epoch_wall,
    )


def _check_stock_group(stocks: Sequence[WindowedDataset]):
    if len(stocks) < 1:
        raise ContractViolation("need at least one stock dataset")
    seen = set()
    for ds in stocks:
        if ds.stock_id in seen:
            raise ContractViolation(f"duplicate stock id {ds.stock_id!r} in group")
        seen.add(ds.stock_id)
    first = stocks[0]
    for ds in stocks[1:]:
        if (ds.lookback, ds.horizon, ds.d) != (first.lookback, first.horizon, first.d):
            raise MergeIncompatibilityError(
                f"{ds.stock_id}: window shape differs from {first.stock_id}"
            )
    return first.lookback, first.horizon, first.d


def _run_parallel(workers, jobs: int):
    """Run zero-arg callables, preserving order; jobs caps concurrency."""
    if jobs <= 1 or len(workers) == 1:
        return [w() for w in workers]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(w) for w in workers]
        return [f.result() for f in futures]


class CstiResult(NamedTuple):
    global_params: ParamVector
    finetuned: list  # ForecastModel per stock
    trace: TrainingTrace


def run_csti(stocks: Sequence[WindowedDataset], kind: str, cfg: CstiConfig,
             hyper: dict | None = None, jobs: int = 1) -> CstiResult:
    """Full protocol: iterative merge rounds, then proximal fine-tuning."""
    lookback, horizon, d = _check_stock_group(stocks)
    k_stocks = len(stocks)
    if k_stocks != cfg.stocks:
        raise ContractViolation(f"config says {cfg.stocks} stocks, got {k_stocks}")
    weights = cfg.weights()
    trace = TrainingTrace()

    template = build_model(
        kind, lookback, horizon, d, hyper,
        seed=derive_seed(cfg.seed, _TAG_INIT, 0),
    )
    if cfg.shared_init:
        start_params = [template.export_params()] * k_stocks
    else:
        start_params = [
            build_model(kind, lookback, horizon, d, hyper,
                        seed=derive_seed(cfg.seed, _TAG_INIT, 1, stocks[k].stock_id)).export_params()
            for k in range(k_stocks)
        ]

    lineage_steps = [0] * k_stocks
    global_params = None

    tick = time.perf_counter()
    for round_index in range(1, cfg.merge_rounds + 1):
        def make_worker(k):
            def work():
                model = template.import_params(
                    global_params if global_params is not None else start_params[k]
                )
                try:
                    return train_local(
                        model, stocks[k], cfg.local_epochs_per_round,
                        cfg.learning_rate, cfg.momentum, cfg.batch_size,
                        seed=derive_seed(cfg.seed, _TAG_MERGE, round_index, stocks[k].stock_id),
                    )
                except DivergenceError as err:
                    raise DivergenceError(
                        f"round {round_index}: {err}",
                        stock_id=stocks[k].stock_id, round_index=round_index,
                    ) from err
            return work

        results = _run_parallel([make_worker(k) for k in range(k_stocks)], jobs)
        global_params = axpy_merge([r.model.export_params() for r in results], weights)
        trace.round_globals.append(global_params)

        round_losses = []
        for k, res in enumerate(results):
            lineage_steps[k] += res.update_steps
            for e, loss_val in enumerate(res.epoch_losses):
                trace.add("merge", round_index, stocks[k].stock_id,
                          loss_val, 0.0, res.epoch_wall_ms[e])
            round_losses.append(float(np.mean(res.epoch_losses)))
        mean_loss = float(np.mean(round_losses))
        trace.global_loss_per_round.append(mean_loss)
        trace.add("merge", round_index, "global", mean_loss, 0.0, 0.0)
    trace.phase_wall_ms["merge"] = (time.perf_counter() - tick) * 1000.0

    if global_params is None:  # merge_rounds == 0: fall back to the shared init
        global_params = start_params[0]

    tick = time.perf_counter()
    finetune_rate = cfg.alpha * cfg.learning_rate

    def make_ft_worker(k):
        def work():
            model = template.import_params(global_params)
            try:
                return train_local(
                    model, stocks[k], cfg.finetune_epochs,
                    finetune_rate, cfg.momentum, cfg.batch_size,
                    anchor=global_params, prox_weight=cfg.prox_weight,
                    seed=derive_seed(cfg.seed, _TAG_FINETUNE, 0, stocks[k].stock_id),
                )
            except DivergenceError as err:
                raise DivergenceError(
                    f"fine-tune: {err}", stock_id=stocks[k].stock_id,
                ) from err
        return work

    if cfg.finetune_epochs > 0:
        ft_results = _run_parallel([make_ft_worker(k) for k in range(k_stocks)], jobs)
    else:
        ft_results = [
            LocalTrainResult(template.import_params(global_params), [], [], 0, [])
            for _ in range(k_stocks)
        ]
    finetuned = []
    for k, res in enumerate(ft_results):
        lineage_steps[k] += res.update_steps
        finetuned.append(res.model)
        for e, loss_val in enumerate(res.epoch_losses):
            trace.add("finetune", e + 1, stocks[k].stock_id,
                      loss_val, res.prox_penalties[e], res.epoch_wall_ms[e])
    trace.phase_wall_ms["finetune"] = (time.perf_counter() - tick) * 1000.0

    trace.lineage_update_steps = lineage_steps
    return CstiResult(global_params, finetuned, trace)


class NormalResult(NamedTuple):
    snapshots: list  # model state after each stock's segment
    trace: TrainingTrace


def run_normal(stocks: Sequence[WindowedDataset], kind: str, epochs_total: int,
               learning_rate: float = 0.01, momentum: float = 0.9,
               batch_size: int = 64, seed: int = 0,
               hyper: dict | None = None) -> NormalResult:
    """Sequential baseline: one model fine-tuned across stocks in turn.

    floor(epochs_total / K) epochs per stock; the momentum buffer resets
    at each stock boundary, matching the per-round resets of the merge
    protocol. Snapshot k is the model state after stock k's segment.
    """
    lookback, horizon, d = _check_stock_group(stocks)
    k_stocks = len(stocks)
    if epochs_total < k_stocks:
        raise ContractViolation("epochs_total must be >= number of stocks")
    epochs_per = epochs_total // k_stocks

    model = build_model(
        kind, lookback, horizon, d, hyper,
        seed=derive_seed(seed, _TAG_INIT, 0),
    )
    trace = TrainingTrace()
    tick = time.perf_counter()
    snapshots = []
    epoch_counter = 0
    total_steps = 0
    for k, ds in enumerate(stocks):
        try:
            res = train_local(
                model, ds, epochs_per, learning_rate, momentum, batch_size,
                seed=derive_seed(seed, _TAG_NORMAL, k, ds.stock_id),
            )
        except DivergenceError as err:
            raise DivergenceError(
                f"normal segment {k}: {err}", stock_id=ds.stock_id, round_index=k,
            ) from err
        model = res.model
        total_steps += res.update_steps
        snapshots.append(model)
        for e, loss_val in enumerate(res.epoch_losses):
            epoch_counter += 1
            trace.add("normal", epoch_counter, ds.stock_id,
                      loss_val, 0.0, res.epoch_wall_ms[e])
    trace.phase_wall_ms["normal"] = (time.perf_counter() - tick) * 1000.0
    trace.lineage_update_steps = [total_steps]
    return NormalResult(snapshots, trace)


def evaluate(models: Sequence[ForecastModel], test_sets: Sequence[WindowedDataset],
             normalizers=None) -> metrics_mod.ExperimentReport:
    """Per-stock and aggregate metrics, plus series for regression plots.

    Models and test sets are aligned positionally (one per stock). When
    normalizers are supplied, metrics on the original price scale are
    reported alongside the normalized ones.
    """
    if len(models) != len(test_sets):
        raise ContractViolation("need one model per test set")
    if normalizers is not None and len(normalizers) != len(test_sets):
        raise ContractViolation("need one normalizer per test set")

    per_stock, series, per_stock_denorm = {}, {}, {}
    pooled_pred, pooled_actual = [], []
    for i, (model, ds) in enumerate(zip(models, test_sets)):
        if ds.n_windows == 0:
            raise ContractViolation(f"{ds.stock_id}: empty test set")
        pred = model.predict_batch(ds.inputs)
        per_stock[ds.stock_id] = metrics_mod.metric_set(pred, ds.targets)
        pooled_pred.append(pred.reshape(-1))
        pooled_actual.append(ds.targets.reshape(-1))
        series[ds.stock_id] = {
            "t": [int(x) for x in ds.absolute_indices],
            "actual": [float(x) for x in ds.targets[:, 0]],
            "predicted": [float(x) for x in pred[:, 0]],
        }
        if normalizers is not None:
            raw_pred = denormalize_close(pred, normalizers[i])
            raw_actual = denormalize_close(ds.targets, normalizers[i])
            per_stock_denorm[ds.stock_id] = metrics_mod.metric_set(raw_pred, raw_actual)

    report = metrics_mod.ExperimentReport(
        per_stock=per_stock,
        macro=metrics_mod.macro_average(per_stock.values()),
        pooled=metrics_mod.metric_set(
            np.concatenate(pooled_pred), np.concatenate(pooled_actual)
        ),
        series=series,
        per_stock_denormalized=per_stock_denorm,
    )
    return report
