"""Three-phase merge protocol and the sequential baseline.

Phase 1 trains one model per stock, in lockstep as one (K, P) stack of
parameter rows, phase 2 averages their parameter vectors into a global
model and repeats, phase 3 fine-tunes the global model per stock with a
proximal pull toward it. The baseline ("normal") strategy trains a
single model across stocks sequentially.

Determinism contract: every stock shuffles from its own stream, keyed by
(config seed, phase, stock identity) and seeded once per run; merge round
r continues the stream where round r - 1 left it, and every stock
shuffles its windows once per epoch, with the draws of one
``permutation``, at every width. Each row of a stacked kernel call
equals the one-row call, the optimizer step is elementwise, and the
stack keeps its rows in one canonical order, by (window count, stock
id), which the merge sums in; so results are bit-identical regardless of
kernel width or the position of a stock in the list. ``jobs`` is that
width, and it caps only texfilter and frets data calls, whose buffers
grow with their stocks. dlinear and paifilter data calls hold none, so
at any width one call takes every stock with a batch of one size. The
theta-only kernel work, the loss reduction and the optimizer work (loss
divide and guard, gradient scale, proximal term, momentum step,
finiteness check) always span all K.

A run binds its trainer once (``_StockStack``): its stacks, designs,
buffers and bound kernel work live as long as the run, and every step
writes into them. A design is what the kind's kernel reads of each
window (``ForecastModel.rows_read``): the last row and a one for dlinear,
the flattened window and a one for paifilter, the whole window for the
spectral kinds. The stack holds each stock's designs and targets once,
and each batch index gathers its shuffled windows from them into one
buffer, sized for the widest batch index. Allocating buffers per step
would leave the top of the glibc heap free at each step's end, glibc
would trim it, and the next step would fault the same pages back in.
Each round merges the theta stack itself. Each value is checked once,
where it enters: by ``WindowedDataset``, ``CstiConfig`` or a public
trainer; the stack trusts it.
"""

from __future__ import annotations

import csv
import functools
import math
import time
import zlib
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import metrics as metrics_mod
from .data import WindowedDataset, denormalize_close
from .errors import (
    ContractViolation,
    DivergenceError,
    MergeIncompatibilityError,
    ShapeMismatchError,
    WrongNormalizerError,
)
from .models import ForecastModel, bind_sum_of_squares, build_model
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
    """The training settings of both strategies, each checked at construction, the
    fine-tune rate alpha * learning_rate too; defaults follow the benchmark protocol."""

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
    epochs_total: int | None = None  # the normal strategy's budget; None: ``epochs_budget``

    def __post_init__(self):
        for name, low in (("stocks", 1), ("merge_rounds", 0), ("finetune_epochs", 0),
                          ("local_epochs_per_round", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        for name, high, closed in (("learning_rate", math.inf, False), ("momentum", 1.0, True),
                                   ("alpha", math.inf, False), ("prox_weight", math.inf, True)):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), high, closed))
        _check_finetune_rate(self.alpha, self.learning_rate)
        if not isinstance(self.shared_init, bool):
            raise ContractViolation(f"shared_init must be a bool, got {self.shared_init!r}")
        if self.epochs_total is not None:
            object.__setattr__(self, "epochs_total",
                               _check_int("epochs_total", self.epochs_total, 1))
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
        """Per-lineage epochs of csti."""
        return self.merge_rounds * self.local_epochs_per_round + self.finetune_epochs

    @property
    def normal_budget(self) -> int:
        """The normal strategy's epochs: ``epochs_total``, by default csti's budget."""
        return self.epochs_budget if self.epochs_total is None else self.epochs_total

    def weights(self) -> tuple:
        return self.merge_weights if self.merge_weights is not None else (1.0,) * self.stocks


def _check_finetune_rate(alpha: float, learning_rate: float) -> None:
    """Each factor may be in range while alpha * learning_rate rounds to 0.0 or overflows."""
    if not 0.0 < alpha * learning_rate < math.inf:
        raise ContractViolation(f"alpha * learning_rate, the fine-tune rate, must lie in (0, inf), "
                                f"got {alpha!r} * {learning_rate!r} = {alpha * learning_rate!r}")


class TraceRow(NamedTuple):
    phase: str  # "merge" | "finetune" | "normal"
    round_index: int  # merge round or epoch number, 1-based
    stock_id: str  # stock id or "global"
    data_loss: float
    prox_penalty: float
    wall_ms: float  # wall time of the epoch (of the whole K-stock stack, in run_csti)


@dataclass
class TrainingTrace:
    """Loss curves, per-round global parameters and step counters.

    The loss curves are the logs of the ``_StockStack.train`` calls, one
    ``add`` per call: (phase, first round or epoch, stock ids, log), whose
    (K, epochs) losses and penalties run in the given stock order. ``rows``
    walks them; nothing per (stock, epoch) is built while training. The
    walk gives, per merge round r, each stock's local epochs, all
    numbered r, then the ``global`` row of ``global_loss_per_round``;
    per fine-tune or normal log, each stock's epochs, numbered on from
    its first. ``add`` trusts its logs: each loss is a mean of batch
    losses the trainer's guard bounded.
    """

    global_loss_per_round: list = field(default_factory=list)
    round_globals: list = field(default_factory=list)  # ParamVector per merge round
    lineage_update_steps: list = field(default_factory=list)
    logs: list = field(default_factory=list)  # (phase, first, stock ids, _StackLog) per call

    def add(self, phase: str, first: int, stock_ids: Sequence[str], log: _StackLog) -> None:
        self.logs.append((phase, first, stock_ids, log))

    def _walk(self):
        """The values of each row, in the order of ``rows``."""
        for phase, first, stock_ids, log in self.logs:
            step = 0 if phase == "merge" else 1  # a merge round numbers all its epochs r
            for stock_id, losses, penalties in zip(stock_ids, log.losses.tolist(),
                                                   log.penalties.tolist()):
                for e, values in enumerate(zip(losses, penalties, log.epoch_wall_ms)):
                    yield (phase, first + step * e, stock_id, *values)
            if phase == "merge":
                yield phase, first, "global", self.global_loss_per_round[first - 1], 0.0, 0.0

    @property
    def rows(self) -> list:
        """One ``TraceRow`` per stock and epoch, and one per merge round, built on each read."""
        return [TraceRow(*values) for values in self._walk()]


def write_trace_csv(trace: TrainingTrace, path) -> None:
    """One line per row of ``trace.rows``, in its order, read from the trace's logs."""
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "round", "stock_id", "data_loss", "proximal_penalty", "wall_ms"])
        writer.writerows([phase, round_index, stock_id, f"{loss:.9g}", f"{penalty:.9g}",
                          f"{wall:.3f}"]
                         for phase, round_index, stock_id, loss, penalty, wall in trace._walk())


class LocalTrainResult(NamedTuple):
    model: ForecastModel
    epoch_losses: list  # mean data-term loss per epoch
    prox_penalties: list  # lambda * ||theta - anchor||^2 at each epoch end
    update_steps: int
    epoch_wall_ms: list


class _StackLog(NamedTuple):
    """What one ``_StockStack.train`` call records, row i for the i-th stock given."""

    losses: np.ndarray  # (K, epochs) mean data-term loss per epoch
    penalties: np.ndarray  # (K, epochs) lambda * ||theta_k - anchor||^2 at each epoch end
    epoch_wall_ms: list  # of the whole stack, per epoch


class _Step(NamedTuple):
    """One batch index of ``_StockStack.schedule``; ``train`` unpacks it by position."""

    active: slice  # the rows with a batch here: a contiguous run, up to the last row
    losses: np.ndarray  # their batch losses at this index
    divisors: np.ndarray  # N * H of each of their batches
    scales: np.ndarray  # 2 / (N * H), one per row, as a column
    prologue: Callable
    epilogue: Callable
    picks: tuple  # (gather slice, design buffer, target buffer) of this index's windows
    calls: list  # (p, x, y, g, bound call) of each data call
    sums: list  # r . r of each run of rows with one batch size
    theta: np.ndarray  # this and the four below: the step views of the active rows
    velocity: np.ndarray
    grad: np.ndarray
    scratch: np.ndarray
    finite: np.ndarray


def _runs(rows, key):
    """(key, slice) for each run of consecutive ``rows`` with one value of ``key``."""
    for value, run in groupby(rows, key):
        run = list(run)
        yield value, slice(run[0], run[-1] + 1)


class _StockStack:
    """The windows of K stocks and every buffer their lockstep training needs.

    Row r of every stack holds stock ``order[r]``: rows run by (window
    count, stock id), so that the rows sharing a kernel call are always one
    contiguous run, and so that the merge, which sums the theta rows in
    row order, gets the same bits whatever the order the stocks were given
    in. ``row_of[i]`` is the row of the i-th stock given.
    Everything is bound once per run, at construction: the (K, P) theta,
    gradient and velocity stacks, a step scratch, a (K, batch size * H)
    residual stack, the batch losses with their N * H divisors, the
    designs and targets, the theta-only row buffers (``workspace(K)``) and
    all kernel work. Per batch index that is the kind's prologue and
    epilogue over the rows with a batch there; the data calls
    (``bind_batch``), each over its rows' views, its designs, its rows of
    the residual stack as ``pred`` and a workspace shared by the calls of
    its (rows, batch size); and one ``bind_sum_of_squares`` dot per run of
    rows with one batch size, from the residual rows into the loss column.
    A step allocates nothing (K, P)-sized, and the kernel's temporaries
    stay put. Freed and re-allocated each step, they would leave the top
    of the glibc heap free; glibc trims it, and the next step faults the
    pages back in, at a cost that swings with the allocator's state.

    The designs (the ``rows_read`` of each window) and targets of all K
    stocks are held once, stock-major: row r's windows after those of rows
    0..r-1, built with one ``rows_read`` per stock. ``_batch_major`` lists
    them by (batch index, row, window). Each epoch copies an identity index
    into ``_work``, shuffles each row's slice of it in place with the row's
    generator, and takes it through ``_batch_major`` into ``_gather``. So
    each batch index's contiguous slice of ``_gather`` names the shuffled
    windows of its batches, row after row. At that batch index one take of
    designs and one of targets fill a buffer pair sized for the widest
    batch index, whose views its calls read: a run of rows with one batch
    size is one contiguous (rows, size, ...) view, and no row is padded to
    a longer stock's size. A data call spans a run of rows with one batch
    size. dlinear and paifilter calls hold no buffers beyond ``pred``, so
    that is all; texfilter and frets calls hold buffers that grow with
    their rows (``workspace(rows, n)``), so their runs are also cut at
    every multiple of ``width`` rows. The batch schedule depends only on
    the stock sizes, so it is built here too: per batch index, the rows
    with a batch there (a contiguous run, since rows ascend in size),
    their step views and 2 / (N * H) gradient scales, their prologue and
    epilogue, the gather slice and buffer views, the bound data calls and
    the dots of the size runs. The prologue and epilogue are bound once per
    distinct run of active rows, and shared by the batch indices with
    that run. The bookkeeping runs once per stack too: each epoch's loss
    means take one reduction per run of rows with one batch count, and
    its proximal penalties one stacked product, into a bound (K,)
    buffer. It checks nothing: it trusts its callers' datasets and settings.
    """

    def __init__(self, model: ForecastModel, datasets: Sequence[WindowedDataset],
                 batch_size: int, width: int):
        self.order = sorted(range(len(datasets)),
                            key=lambda i: (datasets[i].n_windows, datasets[i].stock_id))
        self.row_of = sorted(range(len(datasets)), key=self.order.__getitem__)
        self.model = model
        self.stock_ids = [datasets[i].stock_id for i in self.order]
        self.sizes = [datasets[i].n_windows for i in self.order]
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
        bases = np.cumsum([0, *self.sizes])  # row r's windows start here in stock-major order
        # a data call that holds buffers takes the rows of one cut, between multiples of width
        cap = width if any(model._buffers(batch_size)[2:]) else k_rows
        row_ws, workspaces = model.workspace(k_rows), {}  # theta-only; per (rows, batch size)

        @functools.cache
        def views_of(lo, hi):  # theta, gradient and theta-only views of rows lo..hi-1
            return (model.unpack(self.theta[lo:hi]), model.unpack(self._grad[lo:hi]),
                    {name: buf[lo:hi] for name, buf in row_ws.items()})

        @functools.cache
        def rows_from(lo):  # (prologue, epilogue) over rows lo..K-1
            p, g, row_views = views_of(lo, k_rows)
            return model.bind_rows(p, row_views, g)

        read = model.rows_read(datasets[0].inputs[:1]).shape[1:]  # the design of one window
        self._designs = np.empty((bases[-1], *read))
        for r, i in enumerate(self.order):
            self._designs[bases[r] : bases[r + 1]] = model.rows_read(datasets[i].inputs)
        self._targets = np.concatenate([datasets[i].targets for i in self.order])
        # the stock-major index of each batch-major position: by batch index, then row
        self._batch_major = np.argsort(
            np.concatenate([np.arange(n) // batch_size for n in self.sizes]), kind="stable")
        self._identity = np.arange(bases[-1])
        self._work, self._gather = np.empty_like(self._identity), np.empty_like(self._identity)
        self._stock_slices = [self._work[lo:hi] for lo, hi in zip(bases, bases[1:])]
        widest = sum(min(batch_size, n) for n in self.sizes)  # the windows of batch index 0
        buffers = np.empty((widest, *read)), np.empty((widest, horizon))
        self.schedule, pos = [], 0
        for batch, start in enumerate(range(0, self.sizes[-1], batch_size)):
            def size_at(r):
                return min(batch_size, self.sizes[r] - start)

            active = slice(next(r for r, n in enumerate(self.sizes) if start < n), k_rows)
            calls, sums = [], []  # sums: one r . r per run of active rows with one batch size
            first = pos  # this batch index's windows start here in batch-major order
            for size, rows in _runs(range(active.start, k_rows), size_at):
                divisors[rows, batch] = size * horizon
                sums.append(bind_sum_of_squares(residuals[rows, : size * horizon],
                                                self._losses[rows, batch]))
                for _, part in _runs(range(rows.start, rows.stop), lambda r: r // cap):
                    k = part.stop - part.start
                    if (k, size) not in workspaces:
                        workspaces[k, size] = model.workspace(k, size)
                        del workspaces[k, size]["pred"]  # the residual rows stand in for it
                    p, g, row_views = views_of(part.start, part.stop)
                    x, y = (buf[pos - first :][: k * size].reshape(k, size, *buf.shape[1:])
                            for buf in buffers)
                    pred = residuals[part, : size * horizon].reshape(k, size, horizon)
                    ws = dict(workspaces[k, size], pred=pred, **row_views)
                    calls.append((p, x, y, g, model.bind_batch(p, x, y, g, ws)))
                    pos += k * size
            picks = self._gather[first:pos], *(buf[: pos - first] for buf in buffers)
            self.schedule.append(_Step(active, self._losses[active, batch],
                                       divisors[active, batch], 2.0 / divisors[active, batch, None],
                                       *rows_from(active.start), picks, calls, sums,
                                       *(buf[active] for buf in (self.theta, self._velocity,
                                                                 self._grad, self._scratch,
                                                                 self._finite))))
        # per run of rows with b batches: (b, rows, their batch losses)
        self._same_batches = [(b, rows, self._losses[rows, :b])
                              for b, rows in _runs(range(k_rows), self.batches.__getitem__)]
        # ||theta_k - anchor||^2 of every row, from the differences in the step scratch
        self._distances = np.zeros(k_rows)
        self._squared_distances = bind_sum_of_squares(self._scratch, self._distances)

    def _diverged(self, rows, message, label, round_index):
        """DivergenceError for the first given stock among the failing ``rows``."""
        k = min(rows, key=self.order.__getitem__)
        where = f"{label}: " if label else ""
        return DivergenceError(f"{where}{self.stock_ids[k]}: {message(k)}",
                               stock_id=self.stock_ids[k], round_index=round_index)

    @np.errstate(over="ignore", invalid="ignore")
    def train(self, seeds: Sequence[int | np.random.Generator], epochs: int,
              learning_rate: float, momentum: float,
              anchor: np.ndarray | None = None, prox_weight: float = 0.0, *,
              label: str | None = None, round_index: int | None = None) -> _StackLog:
        """Lockstep minibatch SGD-momentum on ``self.theta`` (K, P), in place.

        The velocity starts at zero on every call, and every other buffer
        is written before it is read, so a call depends only on theta and
        its arguments. Row k shuffles its windows once per epoch with
        ``default_rng(seeds[k])``, drawing what one ``permutation`` draws,
        and takes its batches in that order. A
        seed may be a ``Generator``, which ``default_rng`` returns as is:
        its state carries over from earlier calls and on to later ones, so
        a caller that passes the same generators to every call draws one
        stream per stock across calls. A stock with fewer windows skips
        the batch indices it lacks. At each batch index, the rows whose
        batches have one size share one data call (texfilter and frets: one
        per cut of ``width`` rows), run through
        ``ForecastModel.loss_and_gradient``, which leaves their residuals
        and unscaled gradients. The prologue before it, and the
        epilogue, the r . r dots, loss divide, gradient scale, loss guard,
        proximal term 2 * prox_weight * (theta - anchor), momentum step and
        finiteness check after it run over every row with a batch there,
        in place. Each epoch's mean losses and penalties are stack-wide
        operations too; the returned log holds them as (K, epochs) arrays
        in the order the stocks were given (``row_of``), with the epoch walls.
        A failed check raises DivergenceError naming the stock that fails
        first in (epoch, batch index, given stock) order, at any width. Its
        message is ``"<label>: <stock>: <detail>"``, or ``"<stock>: <detail>"``
        without a ``label``; ``round_index`` is passed on to it as is. An
        overflow or invalid operation warns nothing: the inf or NaN it
        leaves fails one of these checks. ``train_local`` or ``CstiConfig`` checked the settings.
        """
        use_prox = anchor is not None and prox_weight > 0.0
        rngs = [np.random.default_rng(seed) for seed in seeds]
        # the reductions behind ndarray.max(), .all() and .mean(), without their Python wrappers
        maximum, every, total = np.maximum.reduce, np.logical_and.reduce, np.add.reduce
        model = self.model
        kernel = type(model).loss_and_gradient
        designs, targets = self._designs, self._targets
        self._velocity[...] = 0.0
        k_rows = len(self.sizes)
        epoch_losses, penalties = np.zeros((k_rows, epochs)), np.zeros((k_rows, epochs))
        epoch_wall = []
        for epoch in range(epochs):
            tick = time.perf_counter()
            np.copyto(self._work, self._identity)
            for rng, part in zip(rngs, self._stock_slices):
                rng.shuffle(part)  # the draws and the order of rng.permutation(len(part))
            # mode="clip": "raise" would buffer each take that has an out
            self._work.take(self._batch_major, out=self._gather, mode="clip")
            for batch, (active, losses, divisors, scales, prologue, epilogue, (index, x, y),
                        calls, sums, th, vel, gr, scratch, finite) in enumerate(self.schedule):
                designs.take(index, axis=0, out=x, mode="clip")
                targets.take(index, axis=0, out=y, mode="clip")
                prologue()
                for args in calls:
                    kernel(model, *args)
                epilogue()
                for sum_of_squares in sums:
                    sum_of_squares()
                np.divide(losses, divisors, out=losses)  # squared-error sums to means
                np.multiply(gr, scales, out=gr)  # 2 / (N * H), per row
                if not maximum(losses) <= DIVERGENCE_GUARD:  # NaN fails too
                    raise self._diverged(
                        active.start + np.flatnonzero(~(losses <= DIVERGENCE_GUARD)),
                        lambda k: f"batch loss {self._losses[k, batch]:.3e} exceeded guard",
                        label, round_index)
                if use_prox:
                    np.subtract(th, anchor, out=scratch)
                    scratch *= 2.0 * prox_weight
                    gr += scratch
                sgd_step(th, vel, gr, learning_rate, momentum, scratch)
                if not every(np.isfinite(th, out=finite), axis=None):
                    raise self._diverged(
                        active.start + np.flatnonzero(~finite.all(axis=1)),
                        lambda k: "parameters became non-finite at step "
                                  f"{epoch * self.batches[k] + batch + 1}", label, round_index)
            for b, rows, batch_losses in self._same_batches:
                epoch_losses[rows, epoch] = total(batch_losses, axis=1) / b  # the mean's bits
            if use_prox:
                np.subtract(self.theta, anchor, out=self._scratch)
                self._squared_distances()  # each row's bits are np.dot(delta, delta)'s
                np.multiply(self._distances, prox_weight, out=penalties[:, epoch])
            epoch_wall.append((time.perf_counter() - tick) * 1000.0)
        return _StackLog(epoch_losses[self.row_of], penalties[self.row_of], epoch_wall)


def train_local(model: ForecastModel, dataset: WindowedDataset, epochs: int,
                learning_rate: float, momentum: float, batch_size: int = 64,
                anchor: ParamVector | None = None, prox_weight: float = 0.0,
                seed: int | np.random.Generator = 0) -> LocalTrainResult:
    """Minibatch SGD-momentum over seeded shuffles of one stock's windows.

    The one-row call of the lockstep trainer ``_StockStack.train``:
    ``model`` supplies the starting theta and serves only as the kernel,
    and one model is built from the final theta. ``seed`` may be a
    ``Generator``, whose state carries over between calls. The settings
    are checked here, and ``dataset`` must be a ``WindowedDataset`` (which
    checked its windows) of the model's shapes; the stack trusts both.
    """
    shape = _check_stock_group([dataset], 1)
    if shape != (model.lookback, model.horizon, model.n_features):
        raise ShapeMismatchError(f"{dataset.stock_id}: (lookback, horizon, features) {shape}, "
                                 f"the model's {(model.lookback, model.horizon, model.n_features)}")
    epochs = _check_int("epochs", epochs, 1)
    check_step_settings(learning_rate, momentum)
    prox_weight = _check_real("prox_weight", prox_weight)
    if anchor is not None and anchor.layout != model.export_params().layout:
        raise MergeIncompatibilityError("anchor layout does not match model")
    trained, log, steps = _train_one(model, dataset, epochs, learning_rate, momentum,
                                     _check_int("batch_size", batch_size, 1), seed,
                                     None if anchor is None else anchor.values, prox_weight)
    return LocalTrainResult(trained, log.losses[0].tolist(), log.penalties[0].tolist(), steps,
                            log.epoch_wall_ms)


def _train_one(model, dataset, epochs, learning_rate, momentum, batch_size, seed,
               anchor=None, prox_weight=0.0, *, label=None, round_index=None):
    """``train_local``'s work, on checked settings: (model of the final theta, log, steps)."""
    params = model.export_params()
    stack = _StockStack(model, [dataset], batch_size, 1)
    stack.theta[0] = params.values
    log = stack.train([seed], epochs, learning_rate, momentum, anchor, prox_weight,
                      label=label, round_index=round_index)
    return model.import_params(params.replace(stack.theta[0])), log, epochs * stack.batches[0]


def _check_stock_group(stocks: Sequence[WindowedDataset], count: int):
    """The (lookback, horizon, d) of ``count`` distinct ``WindowedDataset``s of one shape."""
    if len(stocks) < 1:
        raise ContractViolation("need at least one stock dataset")
    seen = set()
    for ds in stocks:
        if not isinstance(ds, WindowedDataset):
            raise ContractViolation(f"must be a WindowedDataset, got {type(ds).__name__}")
        if ds.stock_id in seen:
            raise ContractViolation(f"duplicate stock id {ds.stock_id!r} in group")
        seen.add(ds.stock_id)
    first = stocks[0]
    for ds in stocks[1:]:
        if (ds.lookback, ds.horizon, ds.d) != (first.lookback, first.horizon, first.d):
            raise MergeIncompatibilityError(
                f"{ds.stock_id}: window shape differs from {first.stock_id}"
            )
    if len(stocks) != count:
        raise ContractViolation(f"config says {count} stocks, got {len(stocks)}")
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
    at least 1, only caps the stocks in one texfilter or frets data call
    (None: every stock), and so the buffers that call holds; dlinear and
    paifilter calls hold none, so one call takes every stock with a batch
    of one size at any ``jobs``. The theta-only kernel work, like the
    optimizer's, spans every stock.
    Each round merges the theta stack itself, with one
    ``axpy_merge`` call: a sum in the stack's row order, which is canonical,
    so the merge is order-free. Each stock's merge-phase generator is
    seeded once, before round 1, from (config seed, merge, stock id), and
    every round continues it; fine-tuning seeds one more per stock. So a
    run derives 2K seeds for training, one for the template model and,
    without a shared init, K for the stocks' inits. The trace holds the
    log of each ``train`` call, (K, epochs) losses and penalties in the
    order of ``stocks``: one ``add`` per round and one for fine-tuning,
    and each round mean is one reduction over that log; its rows are built
    only when read, and a row's ``wall_ms`` is the wall time of the
    whole-stack epoch it belongs to. The stack keeps its rows in its own
    order, so merge weights, fine-tuned models and update steps are
    mapped back to the order of ``stocks``.
    With no merge rounds, fine-tuning starts from the template's init.
    A divergence in merge round r raises DivergenceError ``"round r: <stock>:
    <detail>"`` with round index r; in fine-tuning, ``"fine-tune: <stock>:
    <detail>"`` with none. The stack trusts ``stocks``, ``WindowedDataset``s of
    one shape, and ``cfg``.
    """
    lookback, horizon, d = _check_stock_group(stocks, cfg.stocks)
    k_stocks = len(stocks)
    width = k_stocks if jobs is None else _check_int("jobs", jobs, 1)
    trace, stock_ids = TrainingTrace(), [ds.stock_id for ds in stocks]

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

    global_params = init  # what fine-tuning starts from if there are no merge rounds
    merge_rngs = [np.random.default_rng(seed) for seed in seeds(_TAG_MERGE, 1)]

    for round_index in range(1, cfg.merge_rounds + 1):
        if round_index > 1:
            theta[:] = global_params.values
        log = stack.train(merge_rngs, cfg.local_epochs_per_round, cfg.learning_rate,
                          cfg.momentum, label=f"round {round_index}", round_index=round_index)
        global_params = init.replace(axpy_merge(theta, weights))
        trace.round_globals.append(global_params)

        trace.add("merge", round_index, stock_ids, log)
        means = np.add.reduce(log.losses, axis=1) / cfg.local_epochs_per_round
        trace.global_loss_per_round.append(math.fsum(means.tolist()) / k_stocks)  # order-free

    theta[:] = global_params.values
    log = stack.train(seeds(_TAG_FINETUNE, 0), cfg.finetune_epochs,
                      cfg.alpha * cfg.learning_rate, cfg.momentum,
                      anchor=global_params.values, prox_weight=cfg.prox_weight, label="fine-tune")
    trace.add("finetune", 1, stock_ids, log)
    finetuned = [template.import_params(global_params.replace(row)) for row in theta[given]]

    trace.lineage_update_steps = [cfg.epochs_budget * stack.batches[r] for r in given]
    return CstiResult(global_params, finetuned, trace)


class NormalResult(NamedTuple):
    snapshots: list  # model state after each stock's segment
    trace: TrainingTrace


def run_normal(stocks: Sequence[WindowedDataset], kind: str, cfg: CstiConfig,
               hyper: dict | None = None) -> NormalResult:
    """Sequential baseline: one model fine-tuned across stocks in turn.

    floor(cfg.normal_budget / K) epochs per stock, at least one; the momentum
    buffer resets at each stock boundary, matching the per-round resets of
    the merge protocol. Snapshot k is the model state after stock k's
    segment. The stocks train in the order given, so unlike ``run_csti`` the
    result depends on that order: it is part of the input. The step
    settings, batch size and seed are ``cfg``'s, which checked them; the
    group is checked once, here. Each segment is a one-stock stack whose
    log the trace keeps, its epochs numbered on from the last segment's. A
    divergence in segment k raises DivergenceError ``"normal segment k:
    <stock>: <detail>"`` with round index k.
    """
    lookback, horizon, d = _check_stock_group(stocks, cfg.stocks)
    epochs_per = _check_int("epochs_total", cfg.normal_budget, cfg.stocks) // cfg.stocks

    model = build_model(kind, lookback, horizon, d, hyper, seed=derive_seed(cfg.seed, _TAG_INIT, 0))
    trace, snapshots, total_steps = TrainingTrace(), [], 0
    for k, ds in enumerate(stocks):
        model, log, steps = _train_one(model, ds, epochs_per, cfg.learning_rate, cfg.momentum,
                                       cfg.batch_size, derive_seed(cfg.seed, _TAG_NORMAL, k,
                                                                   ds.stock_id),
                                       label=f"normal segment {k}", round_index=k)
        trace.add("normal", k * epochs_per + 1, [ds.stock_id], log)
        total_steps += steps
        snapshots.append(model)
    trace.lineage_update_steps = [total_steps]
    return NormalResult(snapshots, trace)


def evaluate(models: Sequence[ForecastModel], test_sets: Sequence[WindowedDataset],
             normalizers=None) -> metrics_mod.ExperimentReport:
    """Per-stock and aggregate metrics, plus series for regression plots.

    Models and test sets are aligned positionally (one per stock, with
    distinct stock ids). When normalizers are supplied, each of its test
    set's stock, metrics on the original price scale are reported alongside
    the normalized ones. The macro average is correctly rounded and the
    pooled series run in stock-id order, so the report does not depend on
    the order of the stocks.
    """
    if len(models) != len(test_sets):
        raise ContractViolation("need one model per test set")
    if normalizers is not None and len(normalizers) != len(test_sets):
        raise ContractViolation("need one normalizer per test set")

    per_stock, series, per_stock_denorm, pooled = {}, {}, {}, []
    for i, (model, ds) in enumerate(zip(models, test_sets)):
        if ds.stock_id in per_stock:
            raise ContractViolation(f"duplicate stock id {ds.stock_id!r} in test sets")
        pred = model.predict_batch(ds.inputs)
        per_stock[ds.stock_id] = metrics_mod.metric_set(pred, ds.targets)
        pooled.append((ds.stock_id, pred.reshape(-1), ds.targets.reshape(-1)))
        series[ds.stock_id] = {
            "t": ds.absolute_indices.tolist(),
            "actual": ds.targets[:, 0].tolist(),
            "predicted": pred[:, 0].tolist(),
        }
        if normalizers is not None:
            if normalizers[i].stock_id != ds.stock_id:
                raise WrongNormalizerError(f"normalizer for {normalizers[i].stock_id!r} "
                                           f"paired with the test set of {ds.stock_id!r}")
            raw_pred = denormalize_close(pred, normalizers[i])
            raw_actual = denormalize_close(ds.targets, normalizers[i])
            per_stock_denorm[ds.stock_id] = metrics_mod.metric_set(raw_pred, raw_actual)

    pooled.sort(key=lambda entry: entry[0])
    return metrics_mod.ExperimentReport(
        per_stock=per_stock,
        macro=metrics_mod.macro_average(per_stock.values()),
        pooled=metrics_mod.metric_set(
            np.concatenate([p for _, p, _ in pooled]), np.concatenate([a for _, _, a in pooled])
        ),
        series=series,
        per_stock_denormalized=per_stock_denorm,
    )
