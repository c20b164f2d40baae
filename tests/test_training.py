import collections
import csv
import dataclasses
import functools
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csti import data as data_mod
from csti import models as models_mod
from csti import training
from csti.data import (
    StockSeries,
    WindowedDataset,
    fit_normalizer,
    generate_synthetic_market,
    make_windows,
    normalize,
)
from csti.errors import (
    ContractViolation,
    DivergenceError,
    MergeIncompatibilityError,
    ShapeMismatchError,
    WrongNormalizerError,
)
from csti.models import MODEL_KINDS, build_model
from csti.numerics import sgd_step
from csti.training import (
    DIVERGENCE_GUARD,
    _TAG_FINETUNE,
    _TAG_INIT,
    _TAG_MERGE,
    CstiConfig,
    TrainingTrace,
    _StackLog,
    derive_seed,
    evaluate,
    run_csti,
    run_normal,
    train_local,
    write_trace_csv,
)

from conftest import loss_and_gradient, windowed_market, write_trace_rows_csv


def _params(model):
    return model.export_params()


# ---------------------------------------------------------------------------
# train_local
# ---------------------------------------------------------------------------

def test_anchor_with_zero_weight_is_bit_identical(small_market):
    train, _, _ = small_market
    model = build_model("dlinear", 16, 1, 3, seed=1)
    plain = train_local(model, train[0], 3, 0.05, 0.9, 32, seed=5)
    anchored = train_local(model, train[0], 3, 0.05, 0.9, 32,
                           anchor=_params(model), prox_weight=0.0, seed=5)
    assert np.array_equal(_params(plain.model).values, _params(anchored.model).values)
    assert plain.epoch_losses == anchored.epoch_losses


def test_huge_prox_weight_pins_params_to_anchor(small_market):
    train, _, _ = small_market
    model = build_model("paifilter", 16, 1, 3, seed=2)
    anchor = _params(model)
    # lambda = 1e6 needs a small step size for the prox term to contract
    result = train_local(model, train[0], 10, 1e-7, 0.9, 64,
                         anchor=anchor, prox_weight=1e6, seed=9)
    drift = np.linalg.norm(_params(result.model).values - anchor.values)
    assert drift < 1e-3
    assert all(p < 1.0 for p in result.prox_penalties)


def test_small_dataset_gives_one_step_per_epoch(small_market):
    train, _, _ = small_market
    ds = train[0]
    tiny = WindowedDataset(ds.stock_id, ds.lookback, ds.horizon,
                           ds.inputs[:10], ds.targets[:10], ds.absolute_indices[:10])
    model = build_model("dlinear", 16, 1, 3, seed=3)
    result = train_local(model, tiny, 4, 0.05, 0.9, batch_size=64, seed=1)
    assert result.update_steps == 4


def test_divergence_guard_carries_stock_id(small_market):
    train, _, _ = small_market
    model = build_model("frets", 16, 1, 3, seed=4)
    with pytest.raises(DivergenceError) as err:
        train_local(model, train[1], 50, 50.0, 0.9, 64, seed=2)
    assert err.value.stock_id == train[1].stock_id


def test_non_finite_parameters_raise_divergence_with_stock_id(small_market):
    train, _, _ = small_market
    ds = train[0]
    # one batch of targets near 500 keeps the loss under the guard, while
    # the step size overflows theta on the first update
    far = WindowedDataset(ds.stock_id, ds.lookback, ds.horizon,
                          ds.inputs[:10], ds.targets[:10] + 500.0, ds.absolute_indices[:10])
    model = build_model("dlinear", 16, 1, 3, seed=6)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        train_local(model, far, 1, 1e308, 0.9, 64, seed=1)
    assert err.value.stock_id == ds.stock_id


def test_nan_batch_loss_trips_the_guard(small_market):
    # finite inputs of alternating sign near 1e300 overflow texfilter's
    # spectra into inf - inf; the guard compares with <=, which NaN fails
    ds = small_market[0][0]
    inputs = np.full_like(ds.inputs, 1e300)
    inputs[:, ::2] *= -1.0
    bad = WindowedDataset(ds.stock_id, ds.lookback, ds.horizon,
                          inputs, ds.targets, ds.absolute_indices)
    model = build_model("texfilter", 16, 1, 3, seed=6)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="loss nan") as err:
        train_local(model, bad, 1, 0.01, 0.9, 64, seed=1)
    assert err.value.stock_id == ds.stock_id


def test_step_settings_validated(small_market):
    train, _, _ = small_market
    model = build_model("dlinear", 16, 1, 3, seed=8)
    with pytest.raises(ContractViolation):
        train_local(model, train[0], 1, 0.0, 0.9, 64)
    with pytest.raises(ContractViolation):
        train_local(model, train[0], 1, 0.01, 1.0, 64)


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_non_finite_learning_rate_rejected(small_market, rate):
    model = build_model("dlinear", 16, 1, 3, seed=8)
    with pytest.raises(ContractViolation) as err:
        train_local(model, small_market[0][0], 1, rate, 0.9, 64)
    assert str(err.value) == f"learning_rate: must be finite and > 0, got {rate!r}"


@pytest.mark.parametrize("batch_size", [0, -1, 2.5, 64.0, True, "64"])
def test_train_local_rejects_a_non_integer_batch_size(small_market, batch_size):
    # 0 used to raise ZeroDivisionError and 2.5 a TypeError
    model = build_model("dlinear", 16, 1, 3, seed=8)
    with pytest.raises(ContractViolation, match="batch_size"):
        train_local(model, small_market[0][0], 1, 0.01, 0.9, batch_size)


def _reference_sgd(model, ds, epochs, learning_rate, momentum, anchor, prox_weight, seed):
    """Plain per-step SGD-momentum: one permutation per epoch, batches of 64."""
    params = model.export_params()
    theta, velocity = params.values.copy(), np.zeros(len(params))
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(ds.n_windows)
        for start in range(0, ds.n_windows, 64):
            idx = order[start : start + 64]
            current = model.import_params(params.replace(theta))
            grad = loss_and_gradient(current, ds.inputs[idx], ds.targets[idx])[1].values
            grad = grad + 2.0 * prox_weight * (theta - anchor)
            sgd_step(theta, velocity, grad, learning_rate, momentum)
    return theta


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_local_equals_a_plain_per_step_loop(kind, small_market):
    ds = small_market[0][0]
    assert ds.n_windows % 64 != 0  # the last batch is short
    model = build_model(kind, 16, 1, 3, seed=6)
    anchor = model.export_params()
    anchor = anchor.replace(anchor.values + 0.01)
    result = train_local(model, ds, 3, 0.01, 0.9, 64, anchor=anchor, prox_weight=0.05, seed=17)
    expected = _reference_sgd(model, ds, 3, 0.01, 0.9, anchor.values, 0.05, seed=17)
    assert _params(result.model).values.tobytes() == expected.tobytes()


def test_dataset_shape_checked_against_model():
    train, _, _ = windowed_market(1, 200, 0.5, seed=12, drop_sentiment=True)
    model = build_model("dlinear", 16, 1, 3, seed=7)  # built for d=3, data has d=2
    with pytest.raises(ShapeMismatchError):
        train_local(model, train[0], 1, 0.01, 0.9, 64, seed=1)


def _look_alike(ds):
    """An object with every field and property of ``ds`` that is not a WindowedDataset."""
    return types.SimpleNamespace(**vars(ds), n_windows=ds.n_windows, d=ds.d)


@pytest.mark.parametrize("entry", ["train_local", "run_csti", "run_normal"])
def test_every_training_entry_point_takes_only_windowed_datasets(entry, small_market):
    # the stack trusts what a WindowedDataset checked when it was built, so
    # an object that merely has its fields must not reach it
    train = small_market[0]
    given = [train[0], _look_alike(train[1]), train[2]]
    calls = {
        "train_local": lambda: train_local(build_model("dlinear", 16, 1, 3), given[1], 1,
                                           0.01, 0.9),
        "run_csti": lambda: run_csti(given, "dlinear",
                                     CstiConfig(stocks=3, merge_rounds=1, finetune_epochs=1)),
        "run_normal": lambda: run_normal(given, "dlinear", CstiConfig(stocks=3, epochs_total=3)),
    }
    with pytest.raises(ContractViolation, match="must be a WindowedDataset, got SimpleNamespace"):
        calls[entry]()


def test_run_csti_checks_no_window_and_no_step_setting_again(small_market, monkeypatch):
    # the datasets checked their windows when built and CstiConfig its numbers;
    # the stack used to re-check every window once per run and the step
    # settings once per train call (K and merge_rounds + 1 calls)
    calls = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=2, seed=7)
    for name, owner, modules in (("windows_finite", data_mod, (data_mod, models_mod)),
                                 ("check", training, (training,))):
        wrapped = counting(name, getattr(owner, name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    run_csti(small_market[0], "dlinear", cfg)
    assert calls == []
    train_local(build_model("dlinear", 16, 1, 3), small_market[0][0], 1, 0.01, 0.9)
    # the entry point checks its own settings: epochs, learning rate, momentum,
    # prox_weight, batch size and seed
    assert calls == ["check"] * 6


_HUGE = 10**5000  # 5,001 digits, past repr's default limit of 4,300
_SHORT = "an integer of 5001 digits"
_HUGE_CALLS = {  # entry: (call on one dataset, the short form its message holds)
    "CstiConfig": (lambda ds: CstiConfig(stocks=2, learning_rate=_HUGE), _SHORT),
    "generate_synthetic_market": (lambda ds: generate_synthetic_market(2, _HUGE, 0.5, 0), _SHORT),
    "build_model": (lambda ds: build_model("dlinear", _HUGE, 1, 2), _SHORT),
    "run_csti": (lambda ds: run_csti([ds], "dlinear", CstiConfig(
        stocks=_HUGE, merge_rounds=1, finetune_epochs=1)), _SHORT),
    "merge_weights": (lambda ds: CstiConfig(stocks=2, merge_weights=(1.0, _HUGE)),
                      "a tuple holding an integer too long to print"),
    "hidden": (lambda ds: build_model("frets", 16, 1, 3, {"hidden": _HUGE}),
               "a dict holding an integer too long to print"),
}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("entry", _HUGE_CALLS)
def test_a_message_quoting_an_integer_too_long_to_print_gives_its_digit_count(entry, small_market):
    # formatting the value in the message used to raise Python's raw "Exceeds the limit
    # (4300 digits) for integer string conversion" ValueError instead
    call, short = _HUGE_CALLS[entry]
    with pytest.raises(ContractViolation, match=short):
        call(small_market[0][0])


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
def test_train_local_rejects_a_seed_that_is_not_an_integer_of_at_least_zero(seed, small_market):
    # -1 used to escape as numpy's raw ValueError, 1.5 and "1" as a raw TypeError,
    # and True trained as seed 1
    model = build_model("dlinear", 16, 1, 3, seed=8)
    with pytest.raises(ContractViolation) as err:
        train_local(model, small_market[0][0], 1, 0.01, 0.9, seed=seed)
    assert str(err.value) == f"seed: integer >= 0 required, got {seed!r}"


def test_train_local_takes_a_generator_as_its_seed(small_market):
    # a Generator skips the seed's rule and draws as the seed it was made from
    model = build_model("dlinear", 16, 1, 3, seed=8)
    by_seed = train_local(model, small_market[0][0], 1, 0.01, 0.9, seed=3)
    by_generator = train_local(model, small_market[0][0], 1, 0.01, 0.9,
                               seed=np.random.default_rng(3))
    assert _params(by_seed.model).values.tobytes() == _params(by_generator.model).values.tobytes()


@pytest.mark.parametrize("prox_weight", [-1.0, math.nan, math.inf, "0.1"])
def test_train_local_rejects_a_prox_weight_outside_its_range(prox_weight, small_market):
    # a negative or NaN weight used to drop the proximal term without a word
    model = build_model("dlinear", 16, 1, 3)
    with pytest.raises(ContractViolation, match="prox_weight"):
        train_local(model, small_market[0][0], 1, 0.01, 0.9, anchor=model.export_params(),
                    prox_weight=prox_weight)


# ---------------------------------------------------------------------------
# run_csti
# ---------------------------------------------------------------------------

def test_single_stock_csti_degenerates_to_plain_training(small_market):
    train, _, _ = small_market
    ds = train[0]
    cfg = CstiConfig(stocks=1, merge_rounds=3, finetune_epochs=2,
                     prox_weight=0.0, seed=21, batch_size=32)
    result = run_csti([ds], "dlinear", cfg)

    # replay: merge of one vector is the identity, so the protocol is a
    # sequence of train_local calls with the protocol's own seed schedule:
    # one merge-phase stream, seeded once and continued by every round
    model = build_model("dlinear", 16, 1, 3,
                        seed=derive_seed(cfg.seed, _TAG_INIT, 0))
    merge_rng = np.random.default_rng(derive_seed(cfg.seed, _TAG_MERGE, 1, ds.stock_id))
    for _ in (1, 2, 3):
        model = train_local(
            model, ds, 1, cfg.learning_rate, cfg.momentum, cfg.batch_size,
            seed=merge_rng,
        ).model
    assert np.array_equal(result.global_params.values, _params(model).values)
    model = train_local(
        model, ds, 2, cfg.learning_rate, cfg.momentum, cfg.batch_size,
        seed=derive_seed(cfg.seed, _TAG_FINETUNE, 0, ds.stock_id),
    ).model
    assert np.array_equal(_params(result.finetuned[0]).values, _params(model).values)


def test_round_one_merge_of_identical_trainings_is_identity(small_market):
    train, _, _ = small_market
    ds = train[0]
    model = build_model("paifilter", 16, 1, 3, seed=31)
    from csti.numerics import axpy_merge

    results = [
        train_local(model, ds, 1, 0.01, 0.9, 64, seed=123) for _ in range(3)
    ]
    rows = np.stack([_params(r.model).values for r in results])
    merged = axpy_merge(rows, [1.0, 1.0, 1.0])
    assert np.array_equal(merged, rows[0])


def test_merge_weights_act_through_their_ratios_alone(small_market):
    # the merge divides by the weight sum: doubling every weight changes no
    # bit (2x and the division by 2K are exact), while it used to double theta
    train = small_market[0]
    cfg = dict(stocks=3, merge_rounds=2, finetune_epochs=1, seed=19)
    results = [run_csti(train, "dlinear", CstiConfig(**cfg, merge_weights=weights))
               for weights in (None, (2.0, 2.0, 2.0), (1.0, 3.0, 0.5))]
    plain, doubled, skewed = (r.global_params.values for r in results)
    assert doubled.tobytes() == plain.tobytes()
    assert skewed.tobytes() != plain.tobytes() and np.allclose(skewed, plain, atol=0.05)


def test_serial_and_parallel_runs_bit_identical(small_market):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=4, finetune_epochs=2, seed=7)
    serial = run_csti(train, "dlinear", cfg, jobs=1)
    threaded = run_csti(train, "dlinear", cfg, jobs=4)
    for a, b in zip(serial.trace.round_globals, threaded.trace.round_globals):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(serial.finetuned, threaded.finetuned):
        assert np.array_equal(_params(a).values, _params(b).values)


def _unequal_market(lengths=(150, 200, 260), seed=29):
    """Training windows of stocks cut to unequal row counts."""
    market = generate_synthetic_market(len(lengths), max(lengths), 0.7, seed)
    train = []
    for series, rows in zip(market, lengths):
        cut = StockSeries(series.stock_id, series.features[:rows])
        normed = normalize(cut, fit_normalizer(cut, 0.7))
        train.append(make_windows(normed, 16, 1, "train", (0.7, 0.1, 0.2)))
    return train


def _run_fingerprint(result):
    return (
        [g.values.tobytes() for g in result.trace.round_globals],
        [_params(m).values.tobytes() for m in result.finetuned],
        result.trace.global_loss_per_round,
        [(phase, first, ids, log.losses.tobytes(), log.penalties.tobytes())
         for phase, first, ids, log in result.trace.logs],
        result.trace.lineage_update_steps,
    )


@pytest.mark.parametrize("kind", ["dlinear", "paifilter", "texfilter", "frets"])
def test_lockstep_unequal_stocks_bit_identical_across_stack_widths(kind):
    train = _unequal_market()
    # 89, 124 and 166 windows: batch counts 2, 2, 3 and last batches 25, 60, 38
    assert [ds.n_windows for ds in train] == [89, 124, 166]
    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=2, seed=37)
    runs = {jobs: _run_fingerprint(run_csti(train, kind, cfg, jobs=jobs))
            for jobs in (1, 2, 3, 8)}
    for jobs in (2, 3, 8):
        assert runs[jobs] == runs[1], f"jobs={jobs} differs from jobs=1"
    reversed_run = run_csti(train[::-1], kind, cfg, jobs=3)
    assert [g.values.tobytes() for g in reversed_run.trace.round_globals] == runs[1][0]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_window_views_train_and_score_as_contiguous_copies(kind, small_market):
    # make_windows returns strided views of the series rows, and every kernel
    # reads contiguous copies of them; a view and a copy can round differently
    # if a kernel ever reads the view itself
    train, test, _ = small_market
    assert not train[0].inputs.flags.c_contiguous
    copies = [[WindowedDataset(ds.stock_id, ds.lookback, ds.horizon,
                               np.ascontiguousarray(ds.inputs), ds.targets, ds.absolute_indices)
               for ds in sets] for sets in (train, test)]
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=1, seed=13)
    runs = [run_csti(sets, kind, cfg) for sets in (train, copies[0])]
    assert _run_fingerprint(runs[0]) == _run_fingerprint(runs[1])
    model = build_model(kind, 16, 1, 3, seed=5)
    alone = [train_local(model, ds, 2, 0.01, 0.9, 64, seed=3) for ds in (train[0], copies[0][0])]
    assert _params(alone[0].model).values.tobytes() == _params(alone[1].model).values.tobytes()
    assert alone[0].epoch_losses == alone[1].epoch_losses
    reports = [evaluate(runs[0].finetuned, sets) for sets in (test, copies[1])]
    assert reports[0].as_dict() == reports[1].as_dict()
    assert reports[0].series == reports[1].series


@pytest.mark.parametrize("kind", ["dlinear", "texfilter"])
def test_lockstep_non_contiguous_rows_bit_identical_across_stack_widths(kind):
    # 166, 89, 166 and 124 windows: given rows 0 and 2 are not adjacent, but
    # the stack orders its rows by window count, so they are its rows 2 and
    # 3. At batch index 1 they share a kernel call, and at index 2 they alone
    # have a batch; texfilter's width of 3 cuts that run of rows in two
    train = _unequal_market(lengths=(260, 150, 260, 200), seed=31)
    assert [ds.n_windows for ds in train] == [166, 89, 166, 124]
    cfg = CstiConfig(stocks=4, merge_rounds=2, finetune_epochs=2, seed=59)
    runs = {jobs: _run_fingerprint(run_csti(train, kind, cfg, jobs=jobs)) for jobs in (1, 3, 4)}
    assert runs[3] == runs[1] and runs[4] == runs[1]


def test_lockstep_rows_match_train_local():
    train = _unequal_market()
    cfg = CstiConfig(stocks=3, merge_rounds=1, finetune_epochs=0, seed=41)
    result = run_csti(train, "paifilter", cfg, jobs=3)
    init = build_model("paifilter", 16, 1, 3, seed=derive_seed(cfg.seed, _TAG_INIT, 0))
    _, _, ids, log = result.trace.logs[0]  # round 1
    for ds, stock_id, losses in zip(train, ids, log.losses.tolist(), strict=True):
        alone = train_local(init, ds, 1, cfg.learning_rate, cfg.momentum, cfg.batch_size,
                            seed=derive_seed(cfg.seed, _TAG_MERGE, 1, ds.stock_id))
        assert stock_id == ds.stock_id and losses == alone.epoch_losses


@pytest.mark.parametrize("kind", ["dlinear", "paifilter"])
def test_equal_size_rows_of_one_call_match_train_local(kind, kernel_rows):
    # at jobs=1 the affine kinds still run every row with a batch of one size
    # in one call, and each of its rows trains as the stock would alone
    train = _unequal_market(lengths=(150, 120, 150, 120, 150, 120), seed=67)
    cfg = CstiConfig(stocks=6, merge_rounds=1, finetune_epochs=0, seed=41)
    result = run_csti(train, kind, cfg, jobs=1)
    # 68 and 89 windows, three stocks each: six full batches, then 4 and 25 windows
    assert kernel_rows == [6, 3, 3]
    init = build_model(kind, 16, 1, 3, seed=derive_seed(cfg.seed, _TAG_INIT, 0))
    _, _, ids, log = result.trace.logs[0]  # round 1
    for ds, stock_id, losses in zip(train, ids, log.losses.tolist(), strict=True):
        alone = train_local(init, ds, 1, cfg.learning_rate, cfg.momentum, cfg.batch_size,
                            seed=derive_seed(cfg.seed, _TAG_MERGE, 1, ds.stock_id))
        assert stock_id == ds.stock_id and losses == alone.epoch_losses


def _window_buffers(stack):
    """The distinct arrays that the stack's kernel calls read designs and targets from."""
    calls = [call for step in stack.schedule for call in step.calls]  # (p, x, y, g, bound)
    return calls[0], {id(view.base): view.base for call in calls for view in call[1:3]}


def _window_arrays(stack, read, horizon):
    """The float arrays reachable from the stack's attributes that hold windows.

    Each is an owning array with more rows than the stack has stocks, of
    designs of shape ``read`` or of ``horizon`` targets; the stack's other
    float arrays (theta, gradient, losses, scales, workspaces) have K rows
    or fewer, or other shapes.
    """
    found, seen, todo = {}, set(), list(vars(stack).values())
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            base = item if item.base is None else item.base
            if (base.dtype == np.float64 and base.shape[0] > len(stack.sizes)
                    and base.shape[1:] in (read, (horizon,))):
                found[id(base)] = base
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
    return list(found.values())


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("lengths,seed", [((150, 200, 260), 29),
                                          ((90, 150, 120, 150, 220, 90), 53),
                                          ((90, 120, 120, 150, 260), 53)])
def test_block_buffers_never_outgrow_the_width_capped_layout(kind, lengths, seed):
    # the stack holds each window's design and target once, stock-major, and
    # its calls read one buffer pair sized for the widest batch index, at
    # every width: no row is padded to the window count of a longer stock
    train = _unequal_market(lengths=lengths, seed=seed)
    for jobs in (1, 2, None):
        stack = training._StockStack(build_model(kind, 16, 1, 3, seed=2), train, 32,
                                     jobs or len(train))
        (_, x, y, _, _), buffers = _window_buffers(stack)
        window_bytes = x[0, 0].nbytes + y[0, 0].nbytes
        assert stack._designs.shape[0] == stack._targets.shape[0] == sum(stack.sizes)
        assert (stack._designs.nbytes + stack._targets.nbytes
                == sum(stack.sizes) * window_bytes), jobs
        widest = sum(min(32, n) for n in stack.sizes)  # batch index 0 has every row
        assert sum(buf.nbytes for buf in buffers.values()) == widest * window_bytes, jobs


@functools.lru_cache(maxsize=1)
def _six_stocks_with_ties():
    # 46, 89, 68, 89, 138 and 46 windows: 2 to 5 batches of 32, unequal last
    # batches, and two pairs of equal size, which the stack orders by stock id
    return _unequal_market(lengths=(90, 150, 120, 150, 220, 90), seed=53)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_the_stack_binds_theta_only_work_once_per_active_row_set(kind, monkeypatch):
    model = build_model(kind, 16, 1, 3, seed=2)
    cls, bound = type(model), []
    bind_rows = cls.bind_rows

    def counting(self, p, ws, g=None):
        bound.append(len(next(iter(p.values()))))  # the rows it binds
        return bind_rows(self, p, ws, g)

    monkeypatch.setattr(cls, "bind_rows", counting)
    train = _six_stocks_with_ties()
    stack = training._StockStack(model, train, 32, len(train))
    # 46, 46, 68, 89, 89 and 138 windows in row order: batch indices 0 and 1
    # span all six rows, index 2 the last four, indices 3 and 4 the last one
    assert len(stack.schedule) == 5 and bound == [6, 4, 1]
    bound.clear()
    alone = training._StockStack(model, [train[4]], 32, 1)  # 138 windows
    assert len(alone.schedule) == 5 and bound == [1]


def _keyed_fingerprint(result, train):
    """A run's outputs keyed by stock id, so runs over permuted stocks compare."""
    return (
        [g.values.tobytes() for g in result.trace.round_globals],
        {ds.stock_id: _params(m).values.tobytes() for ds, m in zip(train, result.finetuned)},
        {(phase, first, stock_id): (losses, penalties)
         for phase, first, ids, log in result.trace.logs
         for stock_id, losses, penalties in zip(ids, log.losses.tolist(), log.penalties.tolist())},
        result.trace.global_loss_per_round,
    )


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), data=st.data())
def test_run_csti_is_bit_identical_at_every_width_and_stock_order(kind, data):
    # the determinism contract: each stock's shuffle stream is keyed by its
    # id and continued across merge rounds, and the merge sums the stack's
    # rows in their (window count, stock id) order, so neither the kernel
    # width nor the position of a stock, nor its merge weight's, moves a bit
    stocks = _six_stocks_with_ties()
    picked = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True),
                       label="stocks, in run order")
    width = data.draw(st.none() | st.integers(1, len(picked)), label="width (None: every stock)")
    weights = data.draw(st.none() | st.lists(st.floats(0.25, 4.0), min_size=6, max_size=6),
                        label="merge weight of each stock (None: uniform)")
    cfg = dict(stocks=len(picked), merge_rounds=data.draw(st.integers(3, 4)),
               finetune_epochs=1, batch_size=32, seed=61,
               local_epochs_per_round=data.draw(st.integers(1, 2)))

    def run(order, jobs):
        given_weights = None if weights is None else [weights[i] for i in order]
        train = [stocks[i] for i in order]
        result = run_csti(train, kind, CstiConfig(**cfg, merge_weights=given_weights), jobs=jobs)
        return _keyed_fingerprint(result, train)

    assert run(picked, width) == run(sorted(picked), 1)


def test_equal_sized_stocks_merge_in_stock_id_order_whatever_the_order_given():
    # six stocks in two sizes, skewed weights: every order given merges the same rows
    train = _unequal_market(lengths=(150, 120, 150, 120, 150, 120), seed=67)
    weights = (0.5, 3.0, 1.0, 2.5, 0.25, 4.0)
    cfg = dict(stocks=6, merge_rounds=3, finetune_epochs=1, batch_size=32, seed=71)
    runs = []
    for perm in ([0, 1, 2, 3, 4, 5], [5, 3, 1, 4, 2, 0], [2, 0, 5, 1, 3, 4]):
        given_stocks = [train[i] for i in perm]
        result = run_csti(given_stocks, "paifilter",
                          CstiConfig(**cfg, merge_weights=[weights[i] for i in perm]))
        runs.append(_keyed_fingerprint(result, given_stocks))
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("kind", ["dlinear", "texfilter"])
def test_no_merge_rounds_without_a_shared_init_starts_from_the_template(kind):
    # without merge rounds there is no merged model to fine-tune from; the
    # init of the stock given first would make every output depend on the order
    train = _unequal_market()
    cfg = CstiConfig(stocks=3, merge_rounds=0, finetune_epochs=2, seed=43, shared_init=False)
    template = build_model(kind, 16, 1, 3, seed=derive_seed(cfg.seed, _TAG_INIT, 0))
    runs = []
    for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        given_stocks = [train[i] for i in perm]
        result = run_csti(given_stocks, kind, cfg)
        assert result.global_params.values.tobytes() == _params(template).values.tobytes()
        runs.append(_keyed_fingerprint(result, given_stocks))
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("shared_init,expected", [(True, 2 * 3 + 1), (False, 3 * 3 + 1)])
def test_run_csti_derives_one_seed_per_stock_and_phase(small_market, monkeypatch,
                                                        shared_init, expected):
    # every merge round continues the stock's stream, so the count does not
    # grow with the rounds: one merge and one fine-tune seed per stock, plus init
    train, _, _ = small_market
    calls = []
    derive = training.derive_seed
    monkeypatch.setattr(training, "derive_seed",
                        lambda *args: calls.append(args) or derive(*args))
    cfg = CstiConfig(stocks=3, merge_rounds=4, finetune_epochs=1, seed=47,
                     shared_init=shared_init)
    run_csti(train, "dlinear", cfg)
    assert len(calls) == expected
    assert sum(args[1] == _TAG_MERGE for args in calls) == 3


# ---------------------------------------------------------------------------
# per-run state: a stack binds its buffers once and each train call starts clean
# ---------------------------------------------------------------------------

def _train_fresh(kind, train, theta, seeds, width, **settings):
    stack = training._StockStack(build_model(kind, 16, 1, 3, seed=2), train, 64, width)
    stack.theta[:] = theta
    return stack, stack.train(seeds, **settings)


def _same_log(a, b):
    return (a.losses.tobytes() == b.losses.tobytes()
            and a.penalties.tobytes() == b.penalties.tobytes())


@pytest.mark.parametrize("kind", ["dlinear", "texfilter"])
def test_each_train_call_starts_from_zero_velocity(kind):
    train = _unequal_market(lengths=(260, 150, 260, 200), seed=31)
    start = np.tile(build_model(kind, 16, 1, 3, seed=2).export_params().values, (4, 1))
    first = dict(epochs=2, learning_rate=0.01, momentum=0.9)
    second = dict(epochs=2, learning_rate=0.02, momentum=0.9, anchor=start[0],
                  prox_weight=0.05)
    stack, _ = _train_fresh(kind, train, start, [1, 2, 3, 4], 3, **first)
    assert np.any(stack._velocity != 0.0)
    stack.theta[:] = start
    again = stack.train([5, 6, 7, 8], **second)
    fresh, log = _train_fresh(kind, train, start, [5, 6, 7, 8], 3, **second)
    assert stack.theta.tobytes() == fresh.theta.tobytes()
    assert _same_log(again, log)


def test_interleaved_stacks_equal_stacks_trained_alone():
    # two stacks over one model kernel: neither may see the other's buffers
    train = _unequal_market(lengths=(260, 150, 260, 200), seed=31)
    other = _unequal_market(lengths=(180, 240, 210), seed=7)
    model = build_model("texfilter", 16, 1, 3, seed=2)
    start = model.export_params().values
    settings = dict(epochs=1, learning_rate=0.01, momentum=0.9)
    stacks = [training._StockStack(model, data, 64, width)
              for data, width in ((train, 3), (other, 2))]
    alone = [training._StockStack(model, data, 64, width)
             for data, width in ((train, 3), (other, 2))]
    for stack in stacks + alone:
        stack.theta[:] = start
    logs = {0: [], 1: []}
    for round_index in range(3):
        for i, stack in enumerate(stacks):
            logs[i].append(stack.train(range(round_index, round_index + 4), **settings))
    for i, stack in enumerate(alone):
        for round_index in range(3):
            log = stack.train(range(round_index, round_index + 4), **settings)
            assert _same_log(log, logs[i][round_index])
        assert stack.theta.tobytes() == stacks[i].theta.tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("width", [1, 3])
def test_a_second_train_call_allocates_no_temporary_per_step(kind, width, monkeypatch):
    # every kernel call is bound once per run, over buffers shared by shape,
    # and each epoch shuffles into the stack's own index arrays; a temporary
    # allocated and freed at each step or epoch would cost the heap churn
    # and page faults those bound calls exist to avoid
    train, _, _ = windowed_market(3, 1480, 0.7, seed=11, horizon=16)
    assert min(ds.n_windows for ds in train) >= 1000  # a permutation of each: 8 KB or more
    model = build_model(kind, 16, 16, 3, seed=2)
    stack = training._StockStack(model, train, 64, width)
    stack.theta[:] = model.export_params().values
    stack.train([1, 2, 3], 1, 0.01, 0.9)
    grown, start, step = [], [0], training.sgd_step

    def measured(*args):  # once per batch index: the peak since the last one
        grown.append(tracemalloc.get_traced_memory()[1] - start[0])
        tracemalloc.reset_peak()
        start[0] = tracemalloc.get_traced_memory()[0]
        return step(*args)

    monkeypatch.setattr(training, "sgd_step", measured)
    # a broadcasting or casting ufunc allocates iteration buffers of up to
    # this many elements per operand; kept small, they stay out of the count
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        stack.train([1, 2, 3], 2, 0.01, 0.9)
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert len(grown) == 2 * max(stack.batches) == 2 * 16
    # grown[0] holds the call's generators and loss arrays, and grown[16]
    # the epoch boundary with the second epoch's shuffle; one (1, 64, 16)
    # float64 temporary would be 8 KiB, and Python's own objects take about 1.5 KiB
    assert max(grown[1:]) < 4096, grown


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), offset=st.integers(0, 1000), seed=st.integers(0, 2**64 - 1))
def test_shuffling_a_slice_in_place_draws_a_permutation(n, offset, seed):
    # the stack shuffles each stock's slice of one index array in place, where
    # it used to draw rng.permutation(n), which is shuffle(arange(n)): every
    # order and every draw must stay the same, and so must the generator's end state
    drawn, shuffled = np.random.default_rng(seed), np.random.default_rng(seed)
    order = drawn.permutation(n)
    work = np.arange(offset + n + 5)
    shuffled.shuffle(work[offset : offset + n])
    assert np.array_equal(work[offset : offset + n], order + offset)
    assert np.array_equal(np.delete(work, np.s_[offset : offset + n]),
                          np.delete(np.arange(offset + n + 5), np.s_[offset : offset + n]))
    assert shuffled.bit_generator.state == drawn.bit_generator.state
    # the draws move positions, whatever values they hold, as the stack's slots
    values = np.random.default_rng(offset).integers(0, 10**9, n)
    moved = values.copy()
    np.random.default_rng(seed).shuffle(moved)
    assert np.array_equal(moved, values[order])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_the_stack_shuffles_only_the_window_rows_its_kind_reads(kind, small_market):
    # the stack holds each stock's design once: what the kernel reads of each
    # window (1 of 16 rows for dlinear) and, for the affine kinds, a one; each
    # batch index gathers from it, and window cells no design reads cannot move a bit
    model = build_model(kind, 16, 1, 3, seed=3)
    train = small_market[0]
    stack = training._StockStack(model, train, 64, 2)
    shape = {"dlinear": (1, 3 + 1), "paifilter": (16 * 3 + 1,)}.get(kind, (16, 3))
    (_, x, _, _, _), _ = _window_buffers(stack)
    designs, targets = stack._designs, stack._targets
    assert designs.shape[1:] == x.shape[2:] == shape
    assert designs.flags.c_contiguous and x.base.flags.c_contiguous
    bases = np.cumsum([0, *stack.sizes])
    for r, i in enumerate(stack.order):  # row r's windows, stock-major
        assert (designs[bases[r] : bases[r + 1]].tobytes()
                == model.rows_read(train[i].inputs).tobytes())
        assert targets[bases[r] : bases[r + 1]].tobytes() == train[i].targets.tobytes()
    cells = np.arange(2.0, 16 * 3 + 2).reshape(1, 16, 3)  # distinct, and none is the ones column
    unread = ~np.isin(cells[0], model.rows_read(cells))
    assert unread.sum() == {"dlinear": 15 * 3}.get(kind, 0)
    perturbed = [dataclasses.replace(ds, inputs=np.where(unread, 1e6, ds.inputs)) for ds in train]
    theta = model.export_params().values
    runs = [_train_fresh(kind, data, theta, [1, 2, 3], 2, epochs=2, learning_rate=0.01,
                         momentum=0.9) for data in (train, perturbed)]
    assert runs[0][0].theta.tobytes() == runs[1][0].theta.tobytes()
    assert _same_log(runs[0][1], runs[1][1])



@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_each_batch_index_gathers_the_windows_its_permutations_put_there(kind, monkeypatch):
    # over unequal stocks, at every width: the calls of batch index b read, in
    # row order, the windows that default_rng(seed).permutation(n) of each
    # epoch puts in batch b; and the stack's window arrays are one design
    # copy plus a buffer the size of the widest batch index
    model = build_model(kind, 16, 1, 3, seed=2)
    cls, seen = type(model), []
    kernel = cls.loss_and_gradient

    def recording(self, p, inputs, targets, g, call=None):
        seen.append((inputs.copy(), targets.copy()))
        return kernel(self, p, inputs, targets, g, call)

    monkeypatch.setattr(cls, "loss_and_gradient", recording)
    train = _six_stocks_with_ties()  # 46, 46, 68, 89, 89 and 138 windows in row order
    read = model.rows_read(train[0].inputs[:1]).shape[1:]
    seeds = [11, 12, 13, 14, 15, 16]  # row r shuffles with seeds[r]
    for jobs in (1, 2, None):
        stack = training._StockStack(model, train, 32, jobs or len(train))
        seen.clear()
        stack.train(seeds, epochs=2, learning_rate=0.01, momentum=0.9)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        calls = iter(seen)
        for _ in range(2):
            orders = [rng.permutation(n) for rng, n in zip(rngs, stack.sizes)]
            for b, step in enumerate(stack.schedule):
                got = [next(calls) for _ in step.calls]
                picked = [(train[i], orders[r][32 * b : 32 * (b + 1)])
                          for r, i in enumerate(stack.order) if r >= step.active.start]
                x = np.concatenate([x.reshape(-1, *read) for x, _ in got])
                y = np.concatenate([y.reshape(-1, 1) for _, y in got])
                assert x.tobytes() == b"".join(
                    model.rows_read(ds.inputs[idx]).tobytes() for ds, idx in picked), (jobs, b)
                assert y.tobytes() == b"".join(ds.targets[idx].tobytes() for ds, idx in picked)
        assert next(calls, None) is None
        window_bytes = (math.prod(read) + 1) * 8
        widest = sum(min(32, n) for n in stack.sizes)
        assert (sum(a.nbytes for a in _window_arrays(stack, read, 1))
                == (sum(stack.sizes) + widest) * window_bytes), jobs

def test_two_runs_in_one_process_are_bit_identical():
    train = _unequal_market(lengths=(260, 150, 260, 200), seed=31)
    cfg = CstiConfig(stocks=4, merge_rounds=3, finetune_epochs=2, seed=61, prox_weight=0.05)
    first = _run_fingerprint(run_csti(train, "texfilter", cfg, jobs=3))
    run_csti(train[::-1], "dlinear", cfg, jobs=2)  # another run in between
    assert _run_fingerprint(run_csti(train, "texfilter", cfg, jobs=3)) == first


@pytest.mark.parametrize("jobs", [1, 3])
def test_one_diverging_stock_is_named_with_its_round(small_market, jobs):
    train, _, _ = small_market
    bad = train[1]
    # targets far off the data scale push the first batch loss over the guard
    far = WindowedDataset(bad.stock_id, bad.lookback, bad.horizon,
                          bad.inputs, bad.targets + 2000.0, bad.absolute_indices)
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=1, seed=43)
    with pytest.raises(DivergenceError) as err:
        run_csti([train[0], far, train[2]], "dlinear", cfg, jobs=jobs)
    assert err.value.stock_id == bad.stock_id
    assert err.value.round_index == 1


def test_divergence_naming_does_not_depend_on_width(small_market):
    # stock 0 diverges on the last batch of round 1 and stock 2 on its first,
    # so stock 2 fails first in (epoch, batch index) order at every width;
    # stacks trained one group after another used to name stock 0 at jobs 1, 2
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=1, seed=43)
    first, third = train[0], train[2]
    order = np.random.default_rng(
        derive_seed(cfg.seed, _TAG_MERGE, 1, first.stock_id)).permutation(first.n_windows)
    assert first.n_windows > cfg.batch_size
    targets = first.targets.copy()
    targets[order[-1]] = 1e9
    huge = WindowedDataset(first.stock_id, first.lookback, first.horizon,
                           first.inputs, targets, first.absolute_indices)
    shifted = WindowedDataset(third.stock_id, third.lookback, third.horizon,
                              third.inputs, third.targets + 2000.0, third.absolute_indices)
    seen = []
    for jobs in (1, 2, 3):
        with pytest.raises(DivergenceError) as err:
            run_csti([huge, train[1], shifted], "dlinear", cfg, jobs=jobs)
        seen.append((err.value.stock_id, err.value.round_index, str(err.value)))
    assert seen[0][:2] == (third.stock_id, 1)
    assert seen == [seen[0]] * 3


def test_every_batch_size_group_reaches_the_loss_guard():
    # the step reduces each run of rows with one batch size on its own; at
    # batch index 1 the stocks' batches hold 25, 60, 64 and 64 windows, and
    # only the 60-window batch, in the middle size group, overflows. A group
    # left out would keep a stale loss that passes the guard
    train = _unequal_market(lengths=(260, 150, 200, 260), seed=31)
    assert [ds.n_windows for ds in train] == [166, 89, 124, 166]
    cfg = CstiConfig(stocks=4, merge_rounds=2, finetune_epochs=1, seed=43)
    bad = train[2]
    order = np.random.default_rng(
        derive_seed(cfg.seed, _TAG_MERGE, 1, bad.stock_id)).permutation(bad.n_windows)
    targets = bad.targets.copy()
    targets[order[cfg.batch_size:]] = 1e200  # its second, partial batch alone
    train[2] = WindowedDataset(bad.stock_id, bad.lookback, bad.horizon,
                               bad.inputs, targets, bad.absolute_indices)
    for jobs in (1, 2, None):
        with pytest.raises(DivergenceError, match="batch loss inf exceeded guard") as err:
            run_csti(train, "dlinear", cfg, jobs=jobs)
        assert (err.value.stock_id, err.value.round_index) == (bad.stock_id, 1), jobs


def _shifted(ds, offset):
    return WindowedDataset(ds.stock_id, ds.lookback, ds.horizon,
                           ds.inputs, ds.targets + offset, ds.absolute_indices)


def _diverge_in(phase, train):
    """Run ``phase`` on ``train`` with one stock pushed over the loss guard."""
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=1, seed=43)
    if phase == "merge round":
        run_csti([train[0], _shifted(train[1], 2000.0), train[2]], "dlinear", cfg)
    elif phase == "fine-tune":  # the merge rounds pass; a step alpha times theirs overshoots
        run_csti(train, "dlinear", dataclasses.replace(cfg, alpha=1e3))
    elif phase == "normal segment":
        run_normal([train[0], train[1], _shifted(train[2], 2000.0)], "dlinear", cfg)
    else:
        train_local(build_model("dlinear", 16, 1, 3, seed=3), _shifted(train[1], 2000.0), 1,
                    0.01, 0.9)


# phase: (message prefix, position of the stock named, round index)
_DIVERGENCE_LABELS = {"merge round": ("round 1: ", 1, 1), "fine-tune": ("fine-tune: ", 0, None),
                      "normal segment": ("normal segment 2: ", 2, 2), "train_local": ("", 1, None)}


@pytest.mark.parametrize("phase", list(_DIVERGENCE_LABELS))
def test_a_divergence_names_its_phase_stock_and_round(small_market, phase):
    # the phase labels used to be added by catching the stack's error and
    # raising a new one from it, which chained the first as its __cause__
    train, _, _ = small_market
    label, k, round_index = _DIVERGENCE_LABELS[phase]
    with pytest.raises(DivergenceError) as err:
        _diverge_in(phase, train)
    assert str(err.value).startswith(f"{label}{train[k].stock_id}: batch loss ")
    assert str(err.value).endswith(" exceeded guard")
    assert (err.value.stock_id, err.value.round_index) == (train[k].stock_id, round_index)
    assert err.value.__cause__ is None


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("jobs", [1, 3])
def test_squared_errors_past_the_float_range_raise_divergence_not_a_warning(small_market,
                                                                            kind, jobs):
    # the overflow in the loss used to escape as a RuntimeWarning, which the
    # suite's filterwarnings = error turns into an exception
    train, _, _ = small_market
    bad = train[1]
    huge = WindowedDataset(bad.stock_id, bad.lookback, bad.horizon,
                           bad.inputs, bad.targets * 1e200, bad.absolute_indices)
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=1, seed=43)
    with pytest.raises(DivergenceError, match="batch loss inf exceeded guard") as err:
        run_csti([train[0], huge, train[2]], kind, cfg, jobs=jobs)
    assert (err.value.stock_id, err.value.round_index) == (bad.stock_id, 1)


def test_the_loss_guard_sees_batch_means_not_sums(small_market):
    # the step reduces residuals to squared-error sums, which it divides before the guard
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=1, seed=43, learning_rate=1e-4)
    init = build_model("dlinear", 16, 1, 3, seed=derive_seed(cfg.seed, _TAG_INIT, 0))
    first = train[1].inputs[:cfg.batch_size], train[1].targets[:cfg.batch_size]
    assert train[1].n_windows > cfg.batch_size
    shifted, far = (loss_and_gradient(init, first[0], first[1] + shift)[0]
                    for shift in (200.0, 2000.0))
    assert shifted < DIVERGENCE_GUARD < shifted * cfg.batch_size
    assert far > DIVERGENCE_GUARD
    for jobs in (1, 3):
        run_csti([train[0], _shifted(train[1], 200.0), train[2]], "dlinear", cfg, jobs=jobs)
    named = []
    for jobs in (1, 3):
        with pytest.raises(DivergenceError) as err:
            run_csti([train[0], _shifted(train[1], 2000.0), train[2]], "dlinear", cfg, jobs=jobs)
        named.append((err.value.stock_id, str(err.value)))
    assert named == [(train[1].stock_id, named[0][1])] * 2


def _kernel_calls_per_epoch(sizes, cap, batch_size):
    """Per batch index, one call per run of rows with one batch size and one cut;
    ``sizes`` ascend, so each distinct (batch size, cut) is one run of rows."""
    return sum(
        len({(min(batch_size, n - start), r // cap) for r, n in enumerate(sizes) if start < n})
        for start in range(0, max(sizes), batch_size)
    )


@pytest.mark.parametrize("jobs", [1, 2, 3, None])
def test_jobs_caps_the_rows_of_every_kernel_call(jobs, kernel_rows):
    # texfilter's data calls hold buffers, so a call takes the rows of one
    # cut, between multiples of jobs; dlinear's and paifilter's hold none,
    # so at any jobs a batch index runs one call per batch size
    train = _six_stocks_with_ties()
    sizes, width = sorted(ds.n_windows for ds in train), jobs or 6  # None: every stock
    assert sizes == [46, 46, 68, 89, 89, 138]  # in batches of 32
    cfg = CstiConfig(stocks=6, merge_rounds=2, finetune_epochs=1, batch_size=32, seed=53)
    for kind in ("dlinear", "paifilter", "texfilter"):
        kernel_rows.clear()
        run_csti(train, kind, cfg, jobs=jobs)
        cap = width if kind == "texfilter" else len(sizes)
        per_epoch = _kernel_calls_per_epoch(sizes, cap, cfg.batch_size)
        assert per_epoch == {1: 18, 2: 12, 3: 10, 6: 8}[cap]
        assert len(kernel_rows) == per_epoch * cfg.epochs_budget, kind
        assert max(kernel_rows) <= cap
        # every row with a batch at an index is in exactly one of its calls
        assert sum(kernel_rows) == cfg.epochs_budget * sum(-(-n // 32) for n in sizes)


@pytest.mark.parametrize("jobs", [2.5, "2", True])
def test_run_csti_rejects_a_non_integer_jobs(small_market, jobs):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=1, finetune_epochs=1)
    with pytest.raises(ContractViolation, match="jobs"):
        run_csti(train, "dlinear", cfg, jobs=jobs)


@pytest.mark.parametrize("jobs", [0, -4])
def test_run_csti_rejects_jobs_below_one(small_market, jobs):
    # the spec's jobs field and --jobs require an integer >= 1 too
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=1, finetune_epochs=1, seed=5)
    with pytest.raises(ContractViolation, match="jobs"):
        run_csti(train, "dlinear", cfg, jobs=jobs)


def test_run_csti_merges_through_the_traced_hook(small_market, monkeypatch):
    # the benchmark's traced run derives every round metric from this name
    train, _, _ = small_market
    calls = []

    def counting(vectors, weights):
        calls.append(len(vectors))
        return merge(vectors, weights)

    merge = training.axpy_merge
    monkeypatch.setattr(training, "axpy_merge", counting)
    cfg = CstiConfig(stocks=3, merge_rounds=4, finetune_epochs=1, seed=47)
    run_csti(train, "dlinear", cfg, jobs=2)
    assert calls == [3] * cfg.merge_rounds


def _count_sgd_steps(monkeypatch):
    # the benchmark's traced run counts one numerics.sgd_step span per call of
    # training.sgd_step, so the trainer must look the step up by that name
    steps, step = [], training.sgd_step

    def counting(theta, *args):
        steps.append(len(theta))
        return step(theta, *args)

    monkeypatch.setattr(training, "sgd_step", counting)
    return steps


def test_run_csti_runs_every_step_through_the_traced_kernel(small_market, monkeypatch,
                                                            kernel_rows):
    # the benchmark's traced run counts one loss_and_gradient span per kernel call
    train, _, _ = small_market
    steps = _count_sgd_steps(monkeypatch)
    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=2, seed=47)
    run_csti(train, "dlinear", cfg, jobs=1)
    # one step per (epoch, batch index), over every stock with a batch there;
    # the three stocks have 194 windows each, and a dlinear call holds no
    # buffers, so at jobs=1 too they share one call per step
    batches = [-(-ds.n_windows // cfg.batch_size) for ds in train]
    assert len(kernel_rows) == len(steps) == cfg.epochs_budget * max(batches)
    assert set(kernel_rows) == {3}
    assert max(steps) == len(train)
    kernel_rows.clear()
    result = run_csti(train, "texfilter", cfg, jobs=1)  # its calls hold buffers
    assert set(kernel_rows) == {1}
    assert len(kernel_rows) == sum(result.trace.lineage_update_steps) > 0


def test_run_normal_runs_every_step_through_the_traced_sgd_step(small_market, monkeypatch):
    train, _, _ = small_market
    steps = _count_sgd_steps(monkeypatch)
    result = run_normal(train, "dlinear",
                        CstiConfig(stocks=3, epochs_total=7, batch_size=32, seed=3))
    epochs_per = 7 // len(train)
    assert len(steps) == sum(epochs_per * -(-ds.n_windows // 32) for ds in train)
    assert len(steps) == result.trace.lineage_update_steps[0] and set(steps) == {1}


def test_stock_order_leaves_round_losses_identical():
    train, _, _ = windowed_market(12, 160, 0.6, seed=29)
    cfg = CstiConfig(stocks=12, merge_rounds=10, finetune_epochs=0, seed=31)
    losses = run_csti(train, "dlinear", cfg, jobs=12).trace.global_loss_per_round
    shuffle = np.random.default_rng(5)
    for perm in [shuffle.permutation(12) for _ in range(6)]:
        permuted = run_csti([train[i] for i in perm], "dlinear", cfg, jobs=12)
        assert permuted.trace.global_loss_per_round == losses


def test_stock_permutation_leaves_global_identical(small_market):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=2, seed=13)
    forward = run_csti(train, "dlinear", cfg)
    backward = run_csti(train[::-1], "dlinear", cfg)
    for a, b in zip(forward.trace.round_globals, backward.trace.round_globals):
        assert np.array_equal(a.values, b.values)
    # per-stock outputs permute with the input order
    for a, b in zip(forward.finetuned, backward.finetuned[::-1]):
        assert np.array_equal(_params(a).values, _params(b).values)


def test_consensus_fixed_point(small_market):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=2, merge_rounds=2, finetune_epochs=0, seed=3)
    init = build_model("dlinear", 16, 1, 3, seed=derive_seed(cfg.seed, _TAG_INIT, 0))
    fixed = []
    for ds in train[:2]:
        targets = init.predict_batch(ds.inputs)  # data gradient is exactly zero
        fixed.append(WindowedDataset(ds.stock_id, ds.lookback, ds.horizon,
                                     ds.inputs, targets, ds.absolute_indices))
    result = run_csti(fixed, "dlinear", cfg)
    for round_global in result.trace.round_globals:
        assert np.array_equal(round_global.values, _params(init).values)


def test_budget_parity_on_equal_sized_stocks():
    train, _, _ = windowed_market(5, 300, 0.6, seed=17)
    cfg = CstiConfig(stocks=5, merge_rounds=5, finetune_epochs=5, seed=1)
    csti_result = run_csti(train, "dlinear", cfg)
    normal_result = run_normal(train, "dlinear", cfg)
    # every csti lineage took exactly as many optimizer steps as the
    # normal strategy's single lineage (10 epochs of equal-sized data), on one config
    assert set(csti_result.trace.lineage_update_steps) == set(
        normal_result.trace.lineage_update_steps
    )


def test_proximal_penalty_bounded_by_initial_loss(small_market):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=5, seed=19)
    result = run_csti(train, "paifilter", cfg)
    phase, _, _, log = result.trace.logs[-1]
    assert phase == "finetune" and log.penalties.shape == (3, 5)
    assert np.all(np.isfinite(log.penalties))
    assert np.all(log.penalties <= log.losses[:, :1])  # each stock's first fine-tune loss


@functools.lru_cache(maxsize=None)
def _equal_stocks(k_stocks):
    return windowed_market(k_stocks, 120, 0.7, seed=71)[0]  # 68 windows each


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_stocks", [1, 3, 24])
def test_finetune_penalties_are_the_bits_of_one_dot_per_stock(kind, k_stocks):
    # the stack takes every row's ||theta_k - anchor||^2 in one stacked
    # product; each row must keep the bits of its own np.dot
    train = _equal_stocks(k_stocks)
    model = build_model(kind, 16, 1, 3, seed=4)
    stack = training._StockStack(model, train, 32, k_stocks)
    anchor = model.export_params().values
    noise = np.random.default_rng(k_stocks)
    stack.theta[:] = anchor + noise.normal(0.0, 0.1, stack.theta.shape)
    log = stack.train(list(range(k_stocks)), 1, 0.01, 0.9, anchor=anchor, prox_weight=0.05)
    expected = np.array([0.05 * np.dot(delta, delta) for delta in stack.theta[stack.row_of] - anchor])
    assert log.penalties.shape == (k_stocks, 1)
    assert log.penalties[:, 0].tobytes() == expected.tobytes()


def test_mismatched_window_shapes_rejected(small_market):
    train, _, _ = small_market
    other, _, _ = windowed_market(1, 200, 0.5, seed=99, lookback=8)
    odd = other[0]
    renamed = WindowedDataset("OTHER", odd.lookback, odd.horizon,
                              odd.inputs, odd.targets, odd.absolute_indices)
    cfg = CstiConfig(stocks=2, merge_rounds=1, finetune_epochs=1)
    with pytest.raises(MergeIncompatibilityError):
        run_csti([train[0], renamed], "dlinear", cfg)


def test_config_validation():
    with pytest.raises(ContractViolation):
        CstiConfig(stocks=0)
    with pytest.raises(ContractViolation):
        CstiConfig(stocks=2, learning_rate=0.0)
    with pytest.raises(ContractViolation):
        CstiConfig(stocks=2, prox_weight=-1.0)
    with pytest.raises(ContractViolation):
        CstiConfig(stocks=2, merge_weights=(1.0,))
    cfg = CstiConfig(stocks=2, merge_rounds=10, finetune_epochs=5,
                     local_epochs_per_round=2)
    assert cfg.epochs_budget == 25


@pytest.mark.parametrize("field,value", [
    ("stocks", 2.5), ("stocks", True), ("merge_rounds", 1.5), ("merge_rounds", -1),
    ("finetune_epochs", 2.0), ("local_epochs_per_round", 0),
    ("local_epochs_per_round", 1.5), ("batch_size", 2.5), ("batch_size", 0),
    ("batch_size", "64"),
])
def test_config_rejects_non_integer_counts(field, value):
    # 2.5 used to pass the range check and fail later with a raw TypeError
    settings = {"stocks": 2, field: value}
    with pytest.raises(ContractViolation, match=field):
        CstiConfig(**settings)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_config_and_run_normal_reject_a_seed_that_is_not_an_integer_of_at_least_zero(seed):
    # 1.5 and True used to train as seed 1; -1 failed in numpy's SeedSequence.
    # run_normal takes its seed from the config, so the config's check covers it
    with pytest.raises(ContractViolation, match="seed"):
        CstiConfig(stocks=2, seed=seed)


@pytest.mark.parametrize("settings", [dict(alpha=5e-324), dict(alpha=1e308, learning_rate=10.0)],
                         ids=["rounds-to-zero", "overflows"])
def test_config_rejects_a_fine_tune_rate_outside_the_floats(settings):
    # each factor is in range, but alpha * learning_rate was 0.0 or inf: the run
    # trained every merge round, then failed on a learning rate the user never set
    with pytest.raises(ContractViolation, match=r"alpha \* learning_rate, the fine-tune rate"):
        CstiConfig(stocks=2, **settings)


def test_config_accepts_numpy_integer_counts():
    cfg = CstiConfig(stocks=np.int64(2), batch_size=np.int32(16))
    assert (cfg.stocks, cfg.batch_size) == (2, 16) and type(cfg.batch_size) is int


@pytest.mark.parametrize("field", ["learning_rate", "alpha", "prox_weight"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_training_numbers(field, value):
    # a NaN prox_weight used to drop the proximal term without a word
    with pytest.raises(ContractViolation, match=field):
        CstiConfig(stocks=2, **{field: value})


NOT_REAL = [True, False, "0.01", None, [0.1], pytest.param(10**400, id="10**400")]


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("field", ["learning_rate", "momentum", "alpha", "prox_weight"])
def test_config_rejects_a_training_number_that_is_not_real(field, value):
    # True used to train at learning rate 1.0; "0.01" and None raised a raw TypeError
    with pytest.raises(ContractViolation, match=field):
        CstiConfig(stocks=2, **{field: value})


@pytest.mark.parametrize("value", NOT_REAL)
def test_config_rejects_a_merge_weight_that_is_not_real(value):
    # float(x) used to let "1" and True through
    with pytest.raises(ContractViolation) as err:
        CstiConfig(stocks=2, merge_weights=(1.0, value))
    assert str(err.value) == ("merge_weights: list of finite numbers >= 0 with a positive sum "
                              f"in the float range (or null) required, got {(1.0, value)!r}")


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("field", ["learning rate", "momentum"])
def test_step_settings_reject_a_value_that_is_not_real(small_market, field, value):
    # run_normal's settings are its config's: test_config_rejects_a_training_number_that_is_not_real
    name = field.replace(" ", "_")
    settings = {"learning_rate": 0.01, "momentum": 0.9, name: value}
    model = build_model("dlinear", 16, 1, 3, seed=8)
    with pytest.raises(ContractViolation) as err:
        train_local(model, small_market[0][0], 1, batch_size=64, **settings)
    rule = {"learning rate": "must be finite and > 0", "momentum": "must lie in [0, 1)"}[field]
    assert str(err.value) == f"{name}: {rule}, got {value!r}"


@pytest.mark.parametrize("weights", [(1.0, -1.0), (0.0, 0.0), (-1.0, 3.0), (1e308, 1e308),
                                     pytest.param(np.array(1.0), id="0-d-array")])
def test_merge_weights_must_be_non_negative_with_positive_sum(weights):
    # (1, -1) used to merge theta and theta + 1 into a vector of -0.5s; a 0-d array
    # escaped as a raw TypeError
    with pytest.raises(ContractViolation, match="merge_weights"):
        CstiConfig(stocks=2, merge_weights=weights)
    # a zero weight is allowed while the sum stays positive
    assert CstiConfig(stocks=2, merge_weights=(0.0, 2.0)).weights() == (0.0, 2.0)


@pytest.mark.parametrize("shared_init", ["false", None, 0, 1])
def test_config_rejects_a_shared_init_that_is_not_a_bool(shared_init):
    # "false" used to train from the shared init, as True does
    with pytest.raises(ContractViolation) as err:
        CstiConfig(stocks=2, shared_init=shared_init)
    assert str(err.value) == f"shared_init: boolean required, got {shared_init!r}"


def test_the_normal_budget_is_epochs_total_or_else_the_csti_budget():
    cfg = CstiConfig(stocks=2, merge_rounds=3, finetune_epochs=4, local_epochs_per_round=2)
    assert cfg.epochs_total is None and cfg.normal_budget == cfg.epochs_budget == 10
    assert dataclasses.replace(cfg, epochs_total=np.int64(7)).normal_budget == 7


@pytest.mark.parametrize("entry", ["run_csti", "run_normal"])
def test_both_strategies_take_as_many_stocks_as_their_config_says(entry, small_market):
    train = small_market[0]
    strategy = {"run_csti": run_csti, "run_normal": run_normal}[entry]
    with pytest.raises(ContractViolation, match="config says 2 stocks, got 3"):
        strategy(train, "dlinear", CstiConfig(stocks=2, merge_rounds=1, finetune_epochs=1))


# ---------------------------------------------------------------------------
# run_normal
# ---------------------------------------------------------------------------

def test_normal_single_stock_is_plain_training(small_market, tmp_path):
    train, _, _ = small_market
    result = run_normal(train[:1], "dlinear", CstiConfig(stocks=1, epochs_total=4, seed=5))
    assert len(result.snapshots) == 1
    assert [line[0] for line in _trace_lines(result.trace, tmp_path)] == ["normal"] * 4


def test_normal_epoch_split_and_snapshots(small_market, tmp_path):
    train, _, _ = small_market
    result = run_normal(train[:2], "dlinear", CstiConfig(stocks=2, epochs_total=10, seed=5))
    assert len(result.snapshots) == 2
    per_stock = collections.Counter(line[2] for line in _trace_lines(result.trace, tmp_path))
    assert set(per_stock.values()) == {5}
    a, b = (_params(s).values for s in result.snapshots)
    assert not np.array_equal(a, b)


def test_normal_requires_enough_epochs(small_market):
    train, _, _ = small_market
    message = ("epochs_total: the normal budget of 2 epochs is below one epoch per stock; "
               ">= 3 required")
    with pytest.raises(ContractViolation) as err:
        run_normal(train, "dlinear", CstiConfig(stocks=3, epochs_total=2, seed=5))
    assert str(err.value) == message
    # without epochs_total the budget is csti's, 0 + 2 epochs here
    with pytest.raises(ContractViolation) as err:
        run_normal(train, "dlinear", CstiConfig(stocks=3, merge_rounds=0, finetune_epochs=2))
    assert str(err.value) == message


@pytest.mark.parametrize("epochs_total", [7.5, True])
def test_normal_rejects_a_non_integer_epoch_budget(epochs_total):
    # 7.5 used to reach train_local as 2.0 epochs and fail there under another name;
    # run_normal's budget is its config's, which checks it
    with pytest.raises(ContractViolation, match="epochs_total"):
        CstiConfig(stocks=3, epochs_total=epochs_total, seed=5)


def test_run_normal_checks_its_settings_and_stocks_once(monkeypatch):
    # the settings are the config's, which checked them; each segment trains on
    # them without checking again, not through train_local
    counts = collections.Counter()
    cfg = CstiConfig(stocks=6, epochs_total=6, seed=5)
    for name in ("check", "_check_stock_group"):
        def counting(*args, _name=name, _check=getattr(training, name)):
            counts[_name] += 1
            return _check(*args)
        monkeypatch.setattr(training, name, counting)
    result = run_normal(_six_stocks_with_ties(), "dlinear", cfg)
    assert len(result.snapshots) == 6
    assert counts == {"_check_stock_group": 1}  # and no check call


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

class _OracleModel:
    """Stub that replays stored predictions for its test set."""

    def __init__(self, outputs):
        self.outputs = outputs

    def predict_batch(self, inputs):
        return self.outputs


def test_evaluate_perfect_and_mean_models(small_market):
    _, test, _ = small_market
    ds = test[0]
    perfect = _OracleModel(ds.targets.copy())
    report = evaluate([perfect], [ds])
    ms = report.per_stock[ds.stock_id]
    assert ms.mae == 0.0 and ms.mse == 0.0 and ms.r2 == 1.0

    mean_model = _OracleModel(np.full_like(ds.targets, ds.targets.mean()))
    report = evaluate([mean_model], [ds])
    assert report.per_stock[ds.stock_id].r2 == pytest.approx(0.0, abs=1e-12)


def test_evaluate_macro_average(small_market):
    _, test, _ = small_market
    models = [_OracleModel(ds.targets + 0.01 * (i + 1)) for i, ds in enumerate(test)]
    report = evaluate(models, test)
    expected = np.mean([report.per_stock[ds.stock_id].mse for ds in test])
    assert report.macro["mse"] == pytest.approx(expected)


def test_evaluate_is_independent_of_stock_order():
    _, test, _ = windowed_market(24, 200, 0.6, seed=19)
    noise = np.random.default_rng(3)
    models = [_OracleModel(ds.targets + noise.normal(0.0, 0.05, ds.targets.shape)) for ds in test]
    report = evaluate(models, test).as_dict()
    shuffle = np.random.default_rng(4)
    for perm in [shuffle.permutation(24) for _ in range(20)]:
        assert evaluate([models[i] for i in perm], [test[i] for i in perm]).as_dict() == report


def test_evaluate_rejects_duplicate_stock_ids(small_market):
    _, test, _ = small_market
    twin = WindowedDataset(test[0].stock_id, test[1].lookback, test[1].horizon,
                           test[1].inputs, test[1].targets, test[1].absolute_indices)
    models = [_OracleModel(ds.targets + 0.1) for ds in (test[0], twin)]
    with pytest.raises(ContractViolation, match=repr(test[0].stock_id)):
        evaluate(models, [test[0], twin])


def test_evaluate_rejects_a_normalizer_of_another_stock(small_market):
    # swapped normalizers used to denormalize each stock on the other's scale
    _, test, normalizers = small_market
    models = [_OracleModel(ds.targets) for ds in test]
    swapped = [normalizers[1], normalizers[0], normalizers[2]]
    with pytest.raises(WrongNormalizerError, match="normalizer for 'SYN001' paired with the "
                                                   "test set of 'SYN000'"):
        evaluate(models, test, swapped)


def test_evaluate_with_denormalizers(small_market):
    _, test, normalizers = small_market
    models = [_OracleModel(ds.targets + 0.05) for ds in test]
    report = evaluate(models, test, normalizers)
    for ds, params in zip(test, normalizers):
        span = params.per_column_max[1] - params.per_column_min[1]
        raw = report.per_stock_denormalized[ds.stock_id]
        assert raw.mae == pytest.approx(0.05 * span, rel=1e-9)


def test_trace_csv_export(tmp_path, small_market):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=2, seed=23)
    result = run_csti(train, "dlinear", cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "phase,round,stock_id,data_loss,proximal_penalty,wall_ms"
    assert any(line.startswith("merge,1,global,") for line in lines)
    assert any(line.startswith("finetune,2,SYN00") for line in lines)


# ---------------------------------------------------------------------------
# the trace
# ---------------------------------------------------------------------------

def _trace_lines(trace, tmp_path):
    """The cells of each line of the trace's CSV below its header."""
    write_trace_csv(trace, tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


@pytest.mark.parametrize("shared_init", [True, False])
def test_csti_trace_rows_come_in_the_documented_order(shared_init, tmp_path):
    # 166, 89 and 124 windows: the stack's row order is not the given one
    train = _unequal_market(lengths=(260, 150, 200), seed=31)
    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=2, local_epochs_per_round=2,
                     prox_weight=0.05, seed=43, shared_init=shared_init)
    trace = run_csti(train, "dlinear", cfg).trace
    lines, ids = _trace_lines(trace, tmp_path), [ds.stock_id for ds in train]
    expected = []
    for r in (1, 2, 3):  # per round: each stock's local epochs, all numbered r, then global
        expected += [("merge", r, sid) for sid in ids for _ in range(2)] + [("merge", r, "global")]
    expected += [("finetune", e, sid) for sid in ids for e in (1, 2)]
    assert [(phase, int(number), sid) for phase, number, sid, *_ in lines] == expected
    assert [(phase, first, list(stock_ids)) for phase, first, stock_ids, _ in trace.logs] == [
        ("merge", 1, ids), ("merge", 2, ids), ("merge", 3, ids), ("finetune", 1, ids)]
    for r, (*_, log) in enumerate(trace.logs[:3]):
        *stock_lines, global_line = lines[7 * r : 7 * r + 7]
        # an epoch's wall is the whole stack's, so every stock's line of it shares it
        assert [line[5] for line in stock_lines] == [f"{w:.3f}" for w in log.epoch_wall_ms] * 3
        assert not log.penalties.any()
        means = [(a + b) / 2 for a, b in log.losses.tolist()]
        assert trace.global_loss_per_round[r] == math.fsum(means) / 3
        assert global_line[3:] == [f"{trace.global_loss_per_round[r]:.9g}", "0", "0.000"]
    *_, finetune = trace.logs[3]
    assert (finetune.penalties > 0.0).all()
    assert [line[5] for line in lines[21:]] == [f"{w:.3f}" for w in finetune.epoch_wall_ms] * 3


def test_normal_trace_rows_come_in_the_documented_order(small_market, tmp_path):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, epochs_total=7, seed=5)  # 2 epochs per stock
    trace = run_normal(train, "dlinear", cfg).trace
    lines = _trace_lines(trace, tmp_path)
    assert [(phase, int(number), sid) for phase, number, sid, *_ in lines] == [
        ("normal", 2 * k + e + 1, ds.stock_id) for k, ds in enumerate(train) for e in range(2)]
    assert not any(log.penalties.any() for *_, log in trace.logs)


@pytest.mark.parametrize("strategy", ["csti", "normal"])
def test_trace_csv_equals_the_per_row_writer(strategy, tmp_path, small_market):
    train, _, _ = small_market
    if strategy == "csti":
        cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=2, local_epochs_per_round=2,
                         prox_weight=0.05, seed=23)
        trace = run_csti(train[::-1], "paifilter", cfg).trace
    else:
        trace = run_normal(train, "paifilter", CstiConfig(stocks=3, epochs_total=6, seed=23)).trace
    write_trace_csv(trace, tmp_path / "trace.csv")
    write_trace_rows_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@st.composite
def _stack_logs(draw):
    """One ``trace.logs`` entry of any phase: K 1-4 stocks, 0-3 epochs, any first index."""
    phase = draw(st.sampled_from(["merge", "finetune", "normal"]))
    first = draw(st.integers(1, 8) if phase == "merge" else st.integers(1, 10**9))
    k, epochs = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    number = st.floats(allow_nan=False, allow_infinity=False)
    grid = st.lists(st.lists(number, min_size=epochs, max_size=epochs), min_size=k, max_size=k)
    ids = draw(st.lists(st.text("AZ9,\" ", min_size=1, max_size=4), min_size=k, max_size=k))
    walls = draw(st.lists(st.floats(0.0, 1e6), min_size=epochs, max_size=epochs))
    log = _StackLog(np.array(draw(grid)).reshape(k, epochs),
                    np.array(draw(grid)).reshape(k, epochs), walls)
    return phase, first, ids, log


@settings(max_examples=60, deadline=None)
@given(logs=st.lists(_stack_logs(), max_size=5),
       global_losses=st.lists(st.floats(0.0, 1e6), min_size=8, max_size=8))
def test_trace_csv_holds_the_reference_rows_of_any_logs(logs, global_losses, tmp_path_factory):
    trace = TrainingTrace(global_loss_per_round=global_losses, logs=logs)
    directory = tmp_path_factory.getbasetemp()
    write_trace_csv(trace, directory / "drawn_trace.csv")
    write_trace_rows_csv(trace, directory / "drawn_reference.csv")
    assert ((directory / "drawn_trace.csv").read_bytes()
            == (directory / "drawn_reference.csv").read_bytes())
