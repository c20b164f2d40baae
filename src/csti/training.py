"""Three-phase merge protocol and the sequential baseline.

Phase 1 trains one model per stock, in lockstep as one (K, P) stack of
parameter rows, phase 2 averages their parameter vectors into a global
model and repeats, phase 3 fine-tunes the global model per stock with a
proximal pull toward it. The baseline ("normal") strategy trains a
single model across stocks sequentially.

Determinism contract: every stock draws its shuffling seed from (config
seed, phase, round, stock identity), each row of a stacked kernel call
equals the one-row call, the optimizer step is elementwise and the merge
is correctly rounded, so results are bit-identical regardless of kernel
width or the position of a stock in the list. ``jobs`` is that width:
the most stocks in one kernel call. The optimizer work (loss guard,
proximal term, momentum step, finiteness check) always spans all K.
"""

from __future__ import annotations

import csv
import math
import time
import zlib
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
from .models import ForecastModel, _check_batch, _check_int, build_model
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
        for name, low in (("stocks", 1), ("merge_rounds", 0), ("finetune_epochs", 0),
                          ("local_epochs_per_round", 1), ("batch_size", 1)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractViolation("learning_rate must be finite and > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ContractViolation("momentum must lie in [0, 1)")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ContractViolation("alpha must be finite and > 0")
        if not (math.isfinite(self.prox_weight) and self.prox_weight >= 0):
            raise ContractViolation("prox_weight must be finite and >= 0")
        if self.merge_weights is not None:
            w = tuple(float(x) for x in self.merge_weights)
            if len(w) != self.stocks:
                raise ContractViolation("merge_weights must have one entry per stock")
            if not (all(np.isfinite(w)) and min(w) >= 0 and sum(w) > 0):
                raise ContractViolation("merge_weights must be finite, >= 0, with a positive sum")
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
    wall_ms: float  # wall time of the epoch (of the whole K-stock stack, in run_csti)


@dataclass
class TrainingTrace:
    """Loss curves, per-round global parameters and step counters."""

    rows: list = field(default_factory=list)
    global_loss_per_round: list = field(default_factory=list)
    round_globals: list = field(default_factory=list)  # ParamVector per merge round
    lineage_update_steps: list = field(default_factory=list)
    phase_wall_ms: dict = field(default_factory=dict)

    def add(self, phase, round_index, stock_id, data_loss, prox_penalty, wall_ms):
        if not (math.isfinite(data_loss) and data_loss >= 0):
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


class _RowLog(NamedTuple):
    """A LocalTrainResult without the model, for one row of a stack."""

    epoch_losses: list
    prox_penalties: list
    update_steps: int
    epoch_wall_ms: list  # of the whole stack


def _rows(rows):
    """Sorted row indices as a slice when contiguous (views), else as the list."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows


class _StockStack:
    """The windows of K stocks, shape-checked once and concatenated per block.

    A block is a run of at most ``width`` consecutive stocks; no kernel call
    spans two blocks. Each block keeps its own arrays, not one array over
    all K stocks: glibc serves an array that large by mmap, and freeing it
    raises glibc's mmap and trim thresholds, so later frees are no longer
    returned to the OS and peak RSS grows. The batch schedule depends only
    on the stock sizes, so it is built here too: per batch index, the rows
    with a batch there and the (block arrays, span, rows) of each kernel call.
    """

    def __init__(self, model: ForecastModel, datasets: Sequence[WindowedDataset],
                 batch_size: int, width: int):
        checked = [_check_batch(ds.inputs, ds.targets, model.lookback, model.horizon,
                                model.n_features) for ds in datasets]
        self.stock_ids = [ds.stock_id for ds in datasets]
        self.sizes = [x.shape[0] for x, _ in checked]
        self.batches = [-(-n // batch_size) for n in self.sizes]
        blocks = [range(lo, min(lo + width, len(self.sizes)))
                  for lo in range(0, len(self.sizes), width)]
        self.offsets = [sum(self.sizes[k - k % width : k]) for k in range(len(self.sizes))]
        data = [(np.concatenate([checked[k][0] for k in block]),
                 np.concatenate([checked[k][1] for k in block])) for block in blocks]
        self.schedule = []
        for start in range(0, max(self.sizes), batch_size):
            calls = []
            for arrays, block in zip(data, blocks):
                groups = {}
                for k in block:
                    if start < self.sizes[k]:
                        groups.setdefault(min(batch_size, self.sizes[k] - start), []).append(k)
                calls += [(arrays, slice(start, start + size), _rows(rows))
                          for size, rows in groups.items()]
            active = [k for k, n in enumerate(self.sizes) if start < n]
            self.schedule.append((active, _rows(active), calls))

    def _diverged(self, k, message):
        return DivergenceError(f"{self.stock_ids[k]}: {message}", stock_id=self.stock_ids[k])

    def train(self, model: ForecastModel, theta: np.ndarray, seeds: Sequence[int],
              epochs: int, learning_rate: float, momentum: float,
              anchor: np.ndarray | None = None, prox_weight: float = 0.0) -> list:
        """Lockstep minibatch SGD-momentum on theta (K, P), in place; one _RowLog per row.

        Row k draws one permutation per epoch from ``default_rng(seeds[k])``
        and takes its batches in that order, one take per array and call. A
        stock with fewer windows skips the batch indices it lacks. At each
        batch index, the rows of a block whose batches have the same size
        share one kernel call; contiguous rows run on views bound once per
        train call, others on copies. Then the loss guard, the proximal term
        2 * prox_weight * (theta - anchor), the momentum step and the
        finiteness check run once over every row with a batch there. A
        failed check raises DivergenceError naming the stock that fails
        first in (epoch, batch index, stock) order, at any width.
        """
        check_step_settings(learning_rate, momentum)
        use_prox = anchor is not None and prox_weight > 0.0
        rngs = [np.random.default_rng(seed) for seed in seeds]
        velocity, grad = np.zeros_like(theta), np.empty_like(theta)
        bound = {}  # (start, stop) -> unpack views of those rows of theta and grad
        k_rows = len(self.sizes)
        epoch_losses, prox_penalties, epoch_wall = [[] for _ in seeds], [[] for _ in seeds], []
        order = np.zeros((k_rows, max(self.sizes)), dtype=np.intp)
        losses = np.empty((k_rows, len(self.schedule)))
        for epoch in range(epochs):
            tick = time.perf_counter()
            for k, (rng, n) in enumerate(zip(rngs, self.sizes)):
                order[k, :n] = self.offsets[k] + rng.permutation(n)
            for batch, (active, at, calls) in enumerate(self.schedule):
                for (inputs, targets), span, rows in calls:
                    if isinstance(rows, slice):
                        key = rows.start, rows.stop
                        if key not in bound:
                            bound[key] = model.unpack(theta[rows]), model.unpack(grad[rows])
                        (p, g), copy = bound[key], None
                    else:
                        copy = np.empty((len(rows), theta.shape[1]))
                        p, g = model.unpack(theta[rows]), model.unpack(copy)
                    idx = order[rows, span]
                    losses[rows, batch] = model.loss_and_gradient(
                        p, inputs.take(idx, axis=0), targets.take(idx, axis=0), g)
                    if copy is not None:
                        grad[rows] = copy
                failed = ~(losses[at, batch] <= DIVERGENCE_GUARD)  # NaN fails too
                if failed.any():
                    k = active[np.flatnonzero(failed)[0]]
                    raise self._diverged(k, f"batch loss {losses[k, batch]:.3e} exceeded guard")
                th, vel, gr = theta[at], velocity[at], grad[at]
                if use_prox:
                    gr += 2.0 * prox_weight * (th - anchor)
                momentum_step(th, vel, gr, learning_rate, momentum)
                if not np.isfinite(th).all():
                    k = active[np.flatnonzero(~np.isfinite(th).all(axis=1))[0]]
                    raise self._diverged(k, "parameters became non-finite at step "
                                            f"{epoch * self.batches[k] + batch + 1}")
                if isinstance(at, list):
                    theta[at], velocity[at] = th, vel
            for k in range(k_rows):
                epoch_losses[k].append(float(losses[k, : self.batches[k]].mean()))
                if use_prox:
                    delta = theta[k] - anchor
                    prox_penalties[k].append(float(prox_weight * np.dot(delta, delta)))
                else:
                    prox_penalties[k].append(0.0)
            epoch_wall.append((time.perf_counter() - tick) * 1000.0)
        return [_RowLog(epoch_losses[k], prox_penalties[k], epochs * self.batches[k], epoch_wall)
                for k in range(k_rows)]


def train_local(model: ForecastModel, dataset: WindowedDataset, epochs: int,
                learning_rate: float, momentum: float, batch_size: int = 64,
                anchor: ParamVector | None = None, prox_weight: float = 0.0,
                seed: int = 0) -> LocalTrainResult:
    """Minibatch SGD-momentum over seeded shuffles of one stock's windows.

    The one-row call of the lockstep trainer ``_StockStack.train``:
    ``model`` supplies the starting theta and serves only as the kernel,
    the dataset's shapes are checked against the model once, up front,
    and one model is built from the final theta.
    """
    epochs = _check_int("epochs", epochs, 1)
    check_step_settings(learning_rate, momentum)
    params = model.export_params()
    if anchor is not None and anchor.layout != params.layout:
        raise MergeIncompatibilityError("anchor layout does not match model")
    theta = params.values[None].copy()
    (log,) = _StockStack(model, [dataset], _check_int("batch_size", batch_size, 1), 1).train(
        model, theta, [seed], epochs, learning_rate, momentum,
        anchor=None if anchor is None else anchor.values, prox_weight=prox_weight,
    )
    return LocalTrainResult(model.import_params(params.replace(theta[0])), *log)


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


class CstiResult(NamedTuple):
    global_params: ParamVector
    finetuned: list  # ForecastModel per stock
    trace: TrainingTrace


def run_csti(stocks: Sequence[WindowedDataset], kind: str, cfg: CstiConfig,
             hyper: dict | None = None, jobs: int = 1) -> CstiResult:
    """Full protocol: iterative merge rounds, then proximal fine-tuning.

    All K stocks train as one lockstep stack (``_StockStack.train``), once
    per merge round and once for fine-tuning; ``jobs`` only caps the stocks
    in one kernel call (``jobs <= 1`` means one), while the optimizer work
    spans every stock. A trace row's ``wall_ms`` is the wall time of the
    whole-stack epoch the row belongs to.
    """
    lookback, horizon, d = _check_stock_group(stocks)
    k_stocks = len(stocks)
    if k_stocks != cfg.stocks:
        raise ContractViolation(f"config says {cfg.stocks} stocks, got {k_stocks}")
    width = max(1, _check_int("jobs", jobs, -math.inf))
    weights = cfg.weights()
    trace = TrainingTrace()

    template = build_model(
        kind, lookback, horizon, d, hyper,
        seed=derive_seed(cfg.seed, _TAG_INIT, 0),
    )
    init = template.export_params()
    theta = np.tile(init.values, (k_stocks, 1)) if cfg.shared_init else np.stack([
        build_model(kind, lookback, horizon, d, hyper,
                    seed=derive_seed(cfg.seed, _TAG_INIT, 1, ds.stock_id)).export_params().values
        for ds in stocks
    ])
    stack = _StockStack(template, stocks, cfg.batch_size, width)

    def seeds(tag, round_index):
        return [derive_seed(cfg.seed, tag, round_index, sid) for sid in stack.stock_ids]

    lineage_steps = [0] * k_stocks
    global_params = None

    tick = time.perf_counter()
    for round_index in range(1, cfg.merge_rounds + 1):
        if global_params is not None:
            theta[:] = global_params.values
        try:
            logs = stack.train(template, theta, seeds(_TAG_MERGE, round_index),
                               cfg.local_epochs_per_round, cfg.learning_rate, cfg.momentum)
        except DivergenceError as err:
            raise DivergenceError(
                f"round {round_index}: {err}",
                stock_id=err.stock_id, round_index=round_index,
            ) from err
        global_params = axpy_merge([init.replace(row) for row in theta], weights)
        trace.round_globals.append(global_params)

        round_losses = []
        for k, log in enumerate(logs):
            lineage_steps[k] += log.update_steps
            for e, loss_val in enumerate(log.epoch_losses):
                trace.add("merge", round_index, stocks[k].stock_id,
                          loss_val, 0.0, log.epoch_wall_ms[e])
            round_losses.append(float(np.mean(log.epoch_losses)))
        mean_loss = math.fsum(round_losses) / k_stocks  # correctly rounded: order-free
        trace.global_loss_per_round.append(mean_loss)
        trace.add("merge", round_index, "global", mean_loss, 0.0, 0.0)
    trace.phase_wall_ms["merge"] = (time.perf_counter() - tick) * 1000.0

    if global_params is None:  # merge_rounds == 0: fall back to stock 0's init
        global_params = init.replace(theta[0])

    tick = time.perf_counter()
    theta[:] = global_params.values
    try:
        logs = stack.train(template, theta, seeds(_TAG_FINETUNE, 0), cfg.finetune_epochs,
                           cfg.alpha * cfg.learning_rate, cfg.momentum,
                           anchor=global_params.values, prox_weight=cfg.prox_weight)
    except DivergenceError as err:
        raise DivergenceError(f"fine-tune: {err}", stock_id=err.stock_id) from err
    finetuned = []
    for k, log in enumerate(logs):
        lineage_steps[k] += log.update_steps
        finetuned.append(template.import_params(global_params.replace(theta[k])))
        for e, loss_val in enumerate(log.epoch_losses):
            trace.add("finetune", e + 1, stocks[k].stock_id,
                      loss_val, log.prox_penalties[e], log.epoch_wall_ms[e])
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
    protocol. Snapshot k is the model state after stock k's segment. The
    stocks train in the order given, so unlike ``run_csti`` the result
    depends on that order: it is part of the input.
    """
    lookback, horizon, d = _check_stock_group(stocks)
    k_stocks = len(stocks)
    epochs_per = _check_int("epochs_total", epochs_total, k_stocks) // k_stocks

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

    Models and test sets are aligned positionally (one per stock, with
    distinct stock ids). When normalizers are supplied, metrics on the
    original price scale are reported alongside the normalized ones. The
    macro average is correctly rounded and the pooled series run in
    stock-id order, so the report does not depend on the order of the
    stocks.
    """
    if len(models) != len(test_sets):
        raise ContractViolation("need one model per test set")
    if normalizers is not None and len(normalizers) != len(test_sets):
        raise ContractViolation("need one normalizer per test set")

    per_stock, series, per_stock_denorm, pooled = {}, {}, {}, []
    for i, (model, ds) in enumerate(zip(models, test_sets)):
        if ds.stock_id in per_stock:
            raise ContractViolation(f"duplicate stock id {ds.stock_id!r} in test sets")
        if ds.n_windows == 0:
            raise ContractViolation(f"{ds.stock_id}: empty test set")
        pred = model.predict_batch(ds.inputs)
        per_stock[ds.stock_id] = metrics_mod.metric_set(pred, ds.targets)
        pooled.append((ds.stock_id, pred.reshape(-1), ds.targets.reshape(-1)))
        series[ds.stock_id] = {
            "t": [int(x) for x in ds.absolute_indices],
            "actual": [float(x) for x in ds.targets[:, 0]],
            "predicted": [float(x) for x in pred[:, 0]],
        }
        if normalizers is not None:
            raw_pred = denormalize_close(pred, normalizers[i])
            raw_actual = denormalize_close(ds.targets, normalizers[i])
            per_stock_denorm[ds.stock_id] = metrics_mod.metric_set(raw_pred, raw_actual)

    pooled.sort(key=lambda entry: entry[0])
    report = metrics_mod.ExperimentReport(
        per_stock=per_stock,
        macro=metrics_mod.macro_average(per_stock.values()),
        pooled=metrics_mod.metric_set(
            np.concatenate([p for _, p, _ in pooled]), np.concatenate([a for _, _, a in pooled])
        ),
        series=series,
        per_stock_denormalized=per_stock_denorm,
    )
    return report
