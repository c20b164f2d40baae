"""Three-phase merge protocol and the sequential baseline.

Phase 1 trains one model per stock, in lockstep as one (K, P) stack of
parameter rows, phase 2 averages their parameter vectors into a global
model and repeats, phase 3 fine-tunes the global model per stock with a
proximal pull toward it. The baseline ("normal") strategy trains a
single model across stocks sequentially.

Determinism contract: every stock shuffles from its own stream, keyed by
(config seed, phase, stock identity) and seeded once per run; merge round
r continues the stream where round r - 1 left it, and every stock draws
exactly one permutation per epoch at every width. Each row of a stacked
kernel call equals the one-row call, the optimizer step is elementwise
and the merge is correctly rounded, so results are bit-identical
regardless of kernel width or the position of a stock in the list.
``jobs`` is that width: the most stocks in one call's batch work. The
theta-only kernel work, the loss reduction and the optimizer work (loss
divide and guard, gradient scale, proximal term, momentum step,
finiteness check) always span all K.

A run binds its trainer once (``_StockStack``): its stacks, designs,
buffers and bound kernel work live as long as the run, and every step
writes into them. A design is what the kind's kernel reads of each
window (``ForecastModel.rows_read``): the last row and a one for dlinear,
the flattened window and a one for paifilter, the whole window for the
spectral kinds. Allocating them per step would leave the top of the
glibc heap free at each step's end, glibc would trim it, and the next
step would fault the same pages back in. Each round merges the theta
stack itself.
"""

from __future__ import annotations

import csv
import functools
import math
import time
import zlib
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from . import metrics as metrics_mod
from .data import WindowedDataset, denormalize_close
from .errors import (
    ContractViolation,
    DivergenceError,
    MergeIncompatibilityError,
)
from .models import ForecastModel, _check_batch, bind_sum_of_squares, build_model
from .numerics import (ParamVector, _check_int, _check_real, atomic_open, axpy_merge,
                       check_step_settings, sgd_step)

DIVERGENCE_GUARD = 1e6

# seed-derivation tags, one per training context
_TAG_INIT = 0
_TAG_MERGE = 1
_TAG_FINETUNE = 2
_TAG_NORMAL = 3


def derive_seed(base_seed: int, tag: int, round_index: int, stock_id: str = "") -> int:
    """Stable seed keyed by stock identity, not list position.

    A run derives one seed per stock and phase, which keys that stock's
    shuffle stream for the whole phase: csti's merge phase uses round
    index 1 and its later rounds continue the stream, fine-tuning uses 0,
    and the normal strategy's segment k uses k. Model init uses the tag
    ``_TAG_INIT``.
    """
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
                          ("local_epochs_per_round", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        for name, high, closed in (("learning_rate", math.inf, False), ("momentum", 1.0, True),
                                   ("alpha", math.inf, False), ("prox_weight", math.inf, True)):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), high, closed))
        if self.merge_weights is not None:
            if not isinstance(self.merge_weights, (list, tuple, np.ndarray)):
                raise ContractViolation("merge_weights must be a sequence of numbers")
            w = tuple(_check_real(f"merge_weights[{i}]", x)
                      for i, x in enumerate(self.merge_weights))
            if len(w) != self.stocks:
                raise ContractViolation("merge_weights must have one entry per stock")
            if not 0 < sum(w) < math.inf:
                raise ContractViolation("merge_weights must have a positive sum in the float range")
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

    def add(self, phase, round_index, stock_id, data_loss, prox_penalty, wall_ms):
        if not (math.isfinite(data_loss) and data_loss >= 0):
            raise ContractViolation("trace losses must be finite and >= 0")
        self.rows.append(
            TraceRow(phase, round_index, stock_id, data_loss, prox_penalty, wall_ms)
        )


def write_trace_csv(trace: TrainingTrace, path) -> None:
    with atomic_open(path, newline="", encoding="utf-8") as fh:
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


class _StackLog(NamedTuple):
    """What one ``_StockStack.train`` call records, row k for stock k."""

    losses: np.ndarray  # (K, epochs) mean data-term loss per epoch
    penalties: np.ndarray  # (K, epochs) lambda * ||theta_k - anchor||^2 at each epoch end
    epoch_wall_ms: list  # of the whole stack, per epoch


def _runs(rows, key):
    """(key, slice) for each run of consecutive ``rows`` with one value of ``key``."""
    for value, run in groupby(rows, key):
        run = list(run)
        yield value, slice(run[0], run[-1] + 1)


class _StockStack:
    """The windows of K stocks and every buffer their lockstep training needs.

    Row r of every stack holds stock ``order[r]``: rows run by (window
    count, stock id), so that the rows sharing a kernel call are always one
    contiguous run. ``row_of[i]`` is the row of the i-th stock given.
    Everything is bound once per run, at construction: the (K, P) theta,
    gradient and velocity stacks, a step scratch, a (K, batch size * H)
    residual stack, the batch losses with their N * H divisors, the
    shuffled designs, the theta-only row buffers (``workspace(K)``) and
    all kernel work. Per batch index that is the kind's prologue and
    epilogue over the rows with a batch there; the blocks' data calls
    (``bind_batch``), each over its rows' views, its designs, its rows of
    the residual stack as ``pred`` and a workspace shared by the calls of
    its (rows, batch size); and one ``bind_sum_of_squares`` dot per run of
    rows with one batch size, across blocks, from the residual rows into
    the loss column. A step allocates nothing (K, P)-sized, and the kernel's
    temporaries stay put. Freed and re-allocated each step, they would
    leave the top of the glibc heap free; glibc trims it, and the next
    step faults the pages back in, at a cost that swings with the
    allocator's state.

    A block is a run of at most ``width`` consecutive rows; no kernel call
    spans two blocks. The stack keeps one contiguous design per stock, the
    ``rows_read`` of its windows (N, ...), and each epoch writes it, in
    the stock's shuffled order, into its row of its block's (rows, most
    windows, ...) buffer, so a kernel call reads its batch as one view and
    each take copies only what the kernel reads. Each block keeps
    its own buffers, not one array over all K stocks: glibc serves an array
    that large by mmap, and freeing it raises glibc's mmap and trim
    thresholds, so later frees are no longer returned to the OS and peak
    RSS grows. The batch schedule depends only on the stock sizes, so it
    is built here too: per batch index, the rows with a batch there (a
    contiguous run, since rows ascend in size), their step views and
    2 / (N * H) gradient scales, their prologue and epilogue, the bound
    calls of the blocks and the dots of the size runs.
    """

    def __init__(self, model: ForecastModel, datasets: Sequence[WindowedDataset],
                 batch_size: int, width: int):
        checked = [(model.rows_read(x), y) for x, y in (  # the designs its kernel reads
            _check_batch(ds.inputs, ds.targets, model.lookback, model.horizon, model.n_features)
            for ds in datasets)]
        self.order = sorted(range(len(datasets)),
                            key=lambda i: (len(checked[i][0]), datasets[i].stock_id))
        self.row_of = sorted(range(len(datasets)), key=self.order.__getitem__)
        self.model = model
        self.stock_ids = [datasets[i].stock_id for i in self.order]
        self.sizes = [len(checked[i][0]) for i in self.order]
        self.batches = [-(-n // batch_size) for n in self.sizes]
        k_rows = len(self.sizes)
        self.theta = np.zeros((k_rows, model.n_params))
        self._grad, self._velocity, self._scratch = (np.zeros_like(self.theta) for _ in range(3))
        self._finite = np.zeros(self.theta.shape, dtype=bool)
        self._losses = np.zeros((k_rows, max(self.batches)))
        divisors = np.zeros_like(self._losses)  # N * H of each row's batch at each index
        # row r's (N, H) prediction at the current batch index, then its residual
        horizon = model.horizon
        residuals = np.zeros((k_rows, min(batch_size, self.sizes[-1]) * horizon))
        self._shuffle = []  # per row: designs, targets, and its rows of the block buffers
        blocks = []  # (first row, end row, shuffled designs, shuffled targets)
        for lo in range(0, k_rows, width):
            hi = min(lo + width, k_rows)
            buffers = (np.zeros((hi - lo, self.sizes[hi - 1], *checked[0][0].shape[1:])),
                       np.zeros((hi - lo, self.sizes[hi - 1], model.horizon)))
            for r in range(lo, hi):
                self._shuffle.append((*checked[self.order[r]],
                                      *(buf[r - lo, : self.sizes[r]] for buf in buffers)))
            blocks.append((lo, hi, *buffers))
        row_ws, workspaces = model.workspace(k_rows), {}  # theta-only; per (rows, batch size)

        @functools.cache
        def views_of(lo, hi):  # theta, gradient and theta-only views of rows lo..hi-1
            return (model.unpack(self.theta[lo:hi]), model.unpack(self._grad[lo:hi]),
                    {name: buf[lo:hi] for name, buf in row_ws.items()})

        self.schedule = []
        for batch, start in enumerate(range(0, self.sizes[-1], batch_size)):
            def size_at(r):
                return min(batch_size, self.sizes[r] - start)

            calls = []
            for lo, hi, designs, targets in blocks:
                live = [r for r in range(lo, hi) if start < self.sizes[r]]
                for size, rows in _runs(live, size_at):
                    k = rows.stop - rows.start
                    if (k, size) not in workspaces:
                        workspaces[k, size] = model.workspace(k, size)
                        del workspaces[k, size]["pred"]  # the residual rows stand in for it
                    p, g, row_views = views_of(rows.start, rows.stop)
                    at = (slice(rows.start - lo, rows.stop - lo), slice(start, start + size))
                    x, y = designs[at], targets[at]
                    pred = residuals[rows, : size * horizon].reshape(k, size, horizon)
                    ws = dict(workspaces[k, size], pred=pred, **row_views)
                    calls.append((p, x, y, g, model.bind_batch(p, x, y, g, ws)))
            active = slice(next(r for r, n in enumerate(self.sizes) if start < n), k_rows)
            sums = []  # one r . r per run of active rows with one batch size, across blocks
            for size, rows in _runs(range(active.start, k_rows), size_at):
                divisors[rows, batch] = size * horizon
                sums.append(bind_sum_of_squares(residuals[rows, : size * horizon],
                                                self._losses[rows, batch]))
            p, g, row_views = views_of(active.start, k_rows)
            self.schedule.append((active, self._losses[active, batch], divisors[active, batch],
                                  2.0 / divisors[active, batch, None],
                                  *model.bind_rows(p, row_views, g), calls, sums,
                                  *(buf[active] for buf in (self.theta, self._velocity,
                                                            self._grad, self._scratch,
                                                            self._finite))))
        self._same_batches = list(_runs(range(k_rows), self.batches.__getitem__))

    def _diverged(self, rows, message):
        """DivergenceError for the first given stock among the failing ``rows``."""
        k = min(rows, key=self.order.__getitem__)
        return DivergenceError(f"{self.stock_ids[k]}: {message(k)}", stock_id=self.stock_ids[k])

    @np.errstate(over="ignore", invalid="ignore")
    def train(self, seeds: Sequence[int | np.random.Generator], epochs: int,
              learning_rate: float, momentum: float,
              anchor: np.ndarray | None = None, prox_weight: float = 0.0) -> _StackLog:
        """Lockstep minibatch SGD-momentum on ``self.theta`` (K, P), in place.

        The velocity starts at zero on every call, and every other buffer
        is written before it is read, so a call depends only on theta and
        its arguments. Row k draws one permutation per epoch from
        ``default_rng(seeds[k])`` and takes its batches in that order. A
        seed may be a ``Generator``, which ``default_rng`` returns as is:
        its state carries over from earlier calls and on to later ones, so
        a caller that passes the same generators to every call draws one
        stream per stock across calls. A stock with fewer windows skips
        the batch indices it lacks. At each batch index, the rows of a
        block whose batches have the same size share one data call, run
        through ``ForecastModel.loss_and_gradient``, which leaves their
        residuals and unscaled gradients. The prologue before it, and the
        epilogue, the r . r dots, loss divide, gradient scale, loss guard,
        proximal term 2 * prox_weight * (theta - anchor), momentum step and
        finiteness check after it run over every row with a batch there,
        in place.
        A failed check raises DivergenceError naming the stock that fails
        first in (epoch, batch index, given stock) order, at any width. An
        overflow or invalid operation warns nothing: the inf or NaN it
        leaves fails one of these checks.
        """
        check_step_settings(learning_rate, momentum)
        use_prox = anchor is not None and prox_weight > 0.0
        rngs = [np.random.default_rng(seed) for seed in seeds]
        model = self.model
        kernel = type(model).loss_and_gradient
        self._velocity[...] = 0.0
        k_rows = len(self.sizes)
        epoch_losses, penalties = np.zeros((k_rows, epochs)), np.zeros((k_rows, epochs))
        epoch_wall = []
        for epoch in range(epochs):
            tick = time.perf_counter()
            for rng, (x, y, x_shuffled, y_shuffled) in zip(rngs, self._shuffle):
                order = rng.permutation(len(x))
                x.take(order, axis=0, out=x_shuffled, mode="clip")  # "raise" would buffer
                y.take(order, axis=0, out=y_shuffled, mode="clip")
            for batch, (active, losses, divisors, scales, prologue, epilogue, calls, sums,
                        th, vel, gr, scratch, finite) in enumerate(self.schedule):
                prologue()
                for args in calls:
                    kernel(model, *args)
                epilogue()
                for sum_of_squares in sums:
                    sum_of_squares()
                np.divide(losses, divisors, out=losses)  # squared-error sums to means
                np.multiply(gr, scales, out=gr)  # 2 / (N * H), per row
                if not losses.max() <= DIVERGENCE_GUARD:  # NaN fails too
                    raise self._diverged(
                        active.start + np.flatnonzero(~(losses <= DIVERGENCE_GUARD)),
                        lambda k: f"batch loss {self._losses[k, batch]:.3e} exceeded guard")
                if use_prox:
                    np.subtract(th, anchor, out=scratch)
                    scratch *= 2.0 * prox_weight
                    gr += scratch
                sgd_step(th, vel, gr, learning_rate, momentum, scratch)
                if not np.isfinite(th, out=finite).all():
                    raise self._diverged(
                        active.start + np.flatnonzero(~finite.all(axis=1)),
                        lambda k: "parameters became non-finite at step "
                                  f"{epoch * self.batches[k] + batch + 1}")
            for b, rows in self._same_batches:
                epoch_losses[rows, epoch] = self._losses[rows, :b].mean(axis=1)
            if use_prox:
                np.subtract(self.theta, anchor, out=self._scratch)
                for k, delta in enumerate(self._scratch):
                    penalties[k, epoch] = prox_weight * np.dot(delta, delta)
            epoch_wall.append((time.perf_counter() - tick) * 1000.0)
        return _StackLog(epoch_losses, penalties, epoch_wall)


def train_local(model: ForecastModel, dataset: WindowedDataset, epochs: int,
                learning_rate: float, momentum: float, batch_size: int = 64,
                anchor: ParamVector | None = None, prox_weight: float = 0.0,
                seed: int | np.random.Generator = 0) -> LocalTrainResult:
    """Minibatch SGD-momentum over seeded shuffles of one stock's windows.

    The one-row call of the lockstep trainer ``_StockStack.train``:
    ``model`` supplies the starting theta and serves only as the kernel,
    the dataset's shapes are checked against the model once, up front,
    and one model is built from the final theta. ``seed`` may be a
    ``Generator``, whose state carries over between calls.
    """
    epochs = _check_int("epochs", epochs, 1)
    check_step_settings(learning_rate, momentum)
    params = model.export_params()
    if anchor is not None and anchor.layout != params.layout:
        raise MergeIncompatibilityError("anchor layout does not match model")
    stack = _StockStack(model, [dataset], _check_int("batch_size", batch_size, 1), 1)
    stack.theta[0] = params.values
    log = stack.train([seed], epochs, learning_rate, momentum,
                      anchor=None if anchor is None else anchor.values, prox_weight=prox_weight)
    return LocalTrainResult(model.import_params(params.replace(stack.theta[0])),
                            log.losses[0].tolist(), log.penalties[0].tolist(),
                            epochs * stack.batches[0], log.epoch_wall_ms)


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
             hyper: dict | None = None, jobs: int | None = None) -> CstiResult:
    """Full protocol: iterative merge rounds, then proximal fine-tuning.

    All K stocks train as one lockstep stack, bound once per run
    (``_StockStack``): one ``train`` call per merge round and one for
    fine-tuning, each starting from zero velocity. ``jobs``, an integer of
    at least 1, only caps the stocks in one kernel call (None: every stock),
    while the theta-only kernel work, like the optimizer's, spans every
    stock. Each round merges the theta stack itself, with one
    ``axpy_merge`` call. Each stock's merge-phase generator is seeded
    once, before round 1, from (config seed, merge, stock id), and every
    round continues it; fine-tuning seeds one more per stock. So a run derives 2K seeds for
    training, one for the template model and, without a shared init, K for
    the stocks' inits. Round means and trace rows come from the (K, epochs)
    loss and penalty arrays of ``train``; a trace row's ``wall_ms`` is the
    wall time of the whole-stack epoch the row belongs to. The stack keeps
    its rows in its own order, so merge weights, trace rows, fine-tuned
    models and update steps are mapped back to the order of ``stocks``.
    """
    lookback, horizon, d = _check_stock_group(stocks)
    k_stocks = len(stocks)
    if k_stocks != cfg.stocks:
        raise ContractViolation(f"config says {cfg.stocks} stocks, got {k_stocks}")
    width = k_stocks if jobs is None else _check_int("jobs", jobs, 1)
    trace = TrainingTrace()

    template = build_model(
        kind, lookback, horizon, d, hyper,
        seed=derive_seed(cfg.seed, _TAG_INIT, 0),
    )
    init = template.export_params()
    stack = _StockStack(template, stocks, cfg.batch_size, width)
    theta, given = stack.theta, stack.row_of  # row_of[i]: the row of stocks[i]
    weights = [cfg.weights()[i] for i in stack.order]
    theta[:] = init.values if cfg.shared_init else np.stack([
        build_model(kind, lookback, horizon, d, hyper,
                    seed=derive_seed(cfg.seed, _TAG_INIT, 1, sid)).export_params().values
        for sid in stack.stock_ids
    ])

    def seeds(tag, round_index):
        return [derive_seed(cfg.seed, tag, round_index, sid) for sid in stack.stock_ids]

    global_params = None
    merge_rngs = [np.random.default_rng(seed) for seed in seeds(_TAG_MERGE, 1)]

    for round_index in range(1, cfg.merge_rounds + 1):
        if global_params is not None:
            theta[:] = global_params.values
        try:
            log = stack.train(merge_rngs, cfg.local_epochs_per_round,
                              cfg.learning_rate, cfg.momentum)
        except DivergenceError as err:
            raise DivergenceError(
                f"round {round_index}: {err}",
                stock_id=err.stock_id, round_index=round_index,
            ) from err
        global_params = init.replace(axpy_merge(theta, weights))
        trace.round_globals.append(global_params)

        for ds, losses in zip(stocks, log.losses[given].tolist()):
            for loss_val, wall in zip(losses, log.epoch_wall_ms):
                trace.add("merge", round_index, ds.stock_id, loss_val, 0.0, wall)
        mean_loss = math.fsum(log.losses.mean(axis=1).tolist()) / k_stocks  # correctly rounded: order-free
        trace.global_loss_per_round.append(mean_loss)
        trace.add("merge", round_index, "global", mean_loss, 0.0, 0.0)

    if global_params is None:  # merge_rounds == 0: fall back to stock 0's init
        global_params = init.replace(theta[given[0]])

    theta[:] = global_params.values
    try:
        log = stack.train(seeds(_TAG_FINETUNE, 0), cfg.finetune_epochs,
                          cfg.alpha * cfg.learning_rate, cfg.momentum,
                          anchor=global_params.values, prox_weight=cfg.prox_weight)
    except DivergenceError as err:
        raise DivergenceError(f"fine-tune: {err}", stock_id=err.stock_id) from err
    finetuned = [template.import_params(global_params.replace(row)) for row in theta[given]]
    for ds, losses, penalties in zip(stocks, log.losses[given].tolist(),
                                     log.penalties[given].tolist()):
        for e, (loss_val, penalty, wall) in enumerate(zip(losses, penalties, log.epoch_wall_ms)):
            trace.add("finetune", e + 1, ds.stock_id, loss_val, penalty, wall)

    trace.lineage_update_steps = [cfg.epochs_budget * stack.batches[r] for r in given]
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
    seed = _check_int("seed", seed, 0)

    model = build_model(
        kind, lookback, horizon, d, hyper,
        seed=derive_seed(seed, _TAG_INIT, 0),
    )
    trace = TrainingTrace()
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
