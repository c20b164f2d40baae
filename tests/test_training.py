import dataclasses
import functools
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    NumericInputError,
    ShapeMismatchError,
)
from csti.models import MODEL_KINDS, ForecastModel, build_model
from csti.numerics import sgd_step
from csti.training import (
    DIVERGENCE_GUARD,
    _TAG_FINETUNE,
    _TAG_INIT,
    _TAG_MERGE,
    CstiConfig,
    derive_seed,
    evaluate,
    run_csti,
    run_normal,
    train_local,
    write_trace_csv,
)

from conftest import windowed_market


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
    tiny = WindowedDataset(ds.stock_id, ds.split, ds.lookback, ds.horizon,
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
    far = WindowedDataset(ds.stock_id, ds.split, ds.lookback, ds.horizon,
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
    bad = WindowedDataset(ds.stock_id, ds.split, ds.lookback, ds.horizon,
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
    with pytest.raises(ContractViolation, match="learning rate"):
        train_local(model, small_market[0][0], 1, rate, 0.9, 64)


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
            grad = current.loss_gradient(ds.inputs[idx], ds.targets[idx]).values
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


def test_the_stack_names_a_non_finite_training_window(small_market):
    # WindowedDataset rejects them, but the stack reads any object with these
    # fields; a NaN window used to surface as "batch loss nan exceeded guard"
    ds = small_market[0][0]
    inputs = ds.inputs.copy()
    inputs[5, 3, 1] = np.nan
    bad = types.SimpleNamespace(stock_id=ds.stock_id, inputs=inputs, targets=ds.targets)
    with pytest.raises(NumericInputError, match="non-finite"):
        training._StockStack(build_model("dlinear", 16, 1, 3), [bad], 64, 1)


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
        cut = StockSeries(series.stock_id, series.timestamps[:rows], series.features[:rows])
        normed = normalize(cut, fit_normalizer(cut, 0.7))
        train.append(make_windows(normed, 16, 1, "train", (0.7, 0.1, 0.2)))
    return train


def _run_fingerprint(result):
    return (
        [g.values.tobytes() for g in result.trace.round_globals],
        [_params(m).values.tobytes() for m in result.finetuned],
        result.trace.global_loss_per_round,
        [(r.phase, r.round_index, r.stock_id, r.data_loss, r.prox_penalty)
         for r in result.trace.rows],
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


@pytest.mark.parametrize("kind", ["dlinear", "texfilter"])
def test_lockstep_non_contiguous_rows_bit_identical_across_stack_widths(kind):
    # 166, 89, 166 and 124 windows: at batch index 1 rows 0 and 2 share a
    # kernel call, and at index 2 only rows 0 and 2 have a batch, so the
    # stack runs on copies with write-back instead of views
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
    for ds, row in zip(train, [r for r in result.trace.rows if r.stock_id != "global"]):
        alone = train_local(init, ds, 1, cfg.learning_rate, cfg.momentum, cfg.batch_size,
                            seed=derive_seed(cfg.seed, _TAG_MERGE, 1, ds.stock_id))
        assert row.stock_id == ds.stock_id and [row.data_loss] == alone.epoch_losses


@functools.lru_cache(maxsize=1)
def _five_unequal_stocks():
    # 47, 68, 89, 113 and 138 windows: 2 to 5 batches of 32, unequal last batches
    return _unequal_market(lengths=(90, 120, 150, 185, 220), seed=53)


def _keyed_fingerprint(result, train):
    """A run's outputs keyed by stock id, so runs over permuted stocks compare."""
    return (
        [g.values.tobytes() for g in result.trace.round_globals],
        {ds.stock_id: _params(m).values.tobytes() for ds, m in zip(train, result.finetuned)},
        {(r.phase, r.round_index, r.stock_id): (r.data_loss, r.prox_penalty)
         for r in result.trace.rows},
        result.trace.global_loss_per_round,
    )


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), data=st.data())
def test_run_csti_is_bit_identical_at_every_width_and_stock_order(kind, data):
    # the determinism contract: each stock's shuffle stream is keyed by its
    # id and continued across merge rounds, so neither the kernel width nor
    # the position of a stock moves a bit
    picked = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
                       label="stocks, in run order")
    width = data.draw(st.none() | st.integers(1, len(picked)), label="width (None: every stock)")
    cfg = CstiConfig(stocks=len(picked), merge_rounds=data.draw(st.integers(3, 4)),
                     finetune_epochs=1, batch_size=32, seed=61,
                     local_epochs_per_round=data.draw(st.integers(1, 2)))
    stocks = _five_unequal_stocks()
    reference = [stocks[i] for i in sorted(picked)]
    permuted = [stocks[i] for i in picked]
    expected = _keyed_fingerprint(run_csti(reference, kind, cfg, jobs=1), reference)
    assert _keyed_fingerprint(run_csti(permuted, kind, cfg, jobs=width), permuted) == expected


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
    # every kernel call is bound once per run, over buffers shared by shape;
    # a temporary allocated and freed at each step would cost the heap
    # churn and page faults those bound calls exist to avoid
    train, _, _ = windowed_market(3, 300, 0.7, seed=11, horizon=16)
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
        stack.train([1, 2, 3], 1, 0.01, 0.9)
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert len(grown) == max(stack.batches) == 3
    # grown[0] holds the epoch's permutations; one (1, 64, 16) float64
    # temporary would be 8 KiB, and Python's own objects take about 1.5 KiB
    assert max(grown[1:]) < 4096, grown


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_the_stack_shuffles_only_the_window_rows_its_kind_reads(kind, small_market):
    # each epoch copies every stock's design into its block buffer: what the
    # kernel reads of each window (1 of 16 rows for dlinear) and, for the
    # affine kinds, a one; window cells no design copies cannot move a bit
    model = build_model(kind, 16, 1, 3, seed=3)
    train = small_market[0]
    stack = training._StockStack(model, train, 64, 2)
    shape = {"dlinear": (1, 3 + 1), "paifilter": (16 * 3 + 1,)}.get(kind, (16, 3))
    for (design, _, shuffled, _), i in zip(stack._shuffle, stack.order):
        assert design.shape[1:] == shuffled.shape[1:] == shape
        assert design.flags.c_contiguous
        assert design.tobytes() == model.rows_read(train[i].inputs).tobytes()
    cells = np.arange(2.0, 16 * 3 + 2).reshape(1, 16, 3)  # distinct, and none is the ones column
    unread = ~np.isin(cells[0], model.rows_read(cells))
    assert unread.sum() == {"dlinear": 15 * 3}.get(kind, 0)
    perturbed = [dataclasses.replace(ds, inputs=np.where(unread, 1e6, ds.inputs)) for ds in train]
    theta = model.export_params().values
    runs = [_train_fresh(kind, data, theta, [1, 2, 3], 2, epochs=2, learning_rate=0.01,
                         momentum=0.9) for data in (train, perturbed)]
    assert runs[0][0].theta.tobytes() == runs[1][0].theta.tobytes()
    assert _same_log(runs[0][1], runs[1][1])


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
    far = WindowedDataset(bad.stock_id, bad.split, bad.lookback, bad.horizon,
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
    huge = WindowedDataset(first.stock_id, first.split, first.lookback, first.horizon,
                           first.inputs, targets, first.absolute_indices)
    shifted = WindowedDataset(third.stock_id, third.split, third.lookback, third.horizon,
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
    train[2] = WindowedDataset(bad.stock_id, bad.split, bad.lookback, bad.horizon,
                               bad.inputs, targets, bad.absolute_indices)
    for jobs in (1, 2, None):
        with pytest.raises(DivergenceError, match="batch loss inf exceeded guard") as err:
            run_csti(train, "dlinear", cfg, jobs=jobs)
        assert (err.value.stock_id, err.value.round_index) == (bad.stock_id, 1), jobs


def _shifted(ds, offset):
    return WindowedDataset(ds.stock_id, ds.split, ds.lookback, ds.horizon,
                           ds.inputs, ds.targets + offset, ds.absolute_indices)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("jobs", [1, 3])
def test_squared_errors_past_the_float_range_raise_divergence_not_a_warning(small_market,
                                                                            kind, jobs):
    # the overflow in the loss used to escape as a RuntimeWarning, which the
    # suite's filterwarnings = error turns into an exception
    train, _, _ = small_market
    bad = train[1]
    huge = WindowedDataset(bad.stock_id, bad.split, bad.lookback, bad.horizon,
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
    assert init.loss(first[0], first[1] + 200.0) < DIVERGENCE_GUARD
    assert init.loss(first[0], first[1] + 200.0) * cfg.batch_size > DIVERGENCE_GUARD
    assert init.loss(first[0], first[1] + 2000.0) > DIVERGENCE_GUARD
    for jobs in (1, 3):
        run_csti([train[0], _shifted(train[1], 200.0), train[2]], "dlinear", cfg, jobs=jobs)
    named = []
    for jobs in (1, 3):
        with pytest.raises(DivergenceError) as err:
            run_csti([train[0], _shifted(train[1], 2000.0), train[2]], "dlinear", cfg, jobs=jobs)
        named.append((err.value.stock_id, str(err.value)))
    assert named == [(train[1].stock_id, named[0][1])] * 2


def _kernel_calls_per_epoch(sizes, width, batch_size):
    """Calls of the parent's per-group stacks: per block of ``width`` stocks
    and batch index, one call per distinct batch size among its rows."""
    return sum(
        len({min(batch_size, n - start) for n in sizes[lo : lo + width] if start < n})
        for lo in range(0, len(sizes), width)
        for start in range(0, max(sizes), batch_size)
    )


@pytest.mark.parametrize("jobs", [1, 2, 3, None])
def test_jobs_caps_the_rows_of_every_kernel_call(jobs, monkeypatch):
    train = _unequal_market()
    rows = []
    kernel = ForecastModel.loss_and_gradient

    def counting(self, p, inputs, targets, g, call=None):
        rows.append(len(inputs))
        return kernel(self, p, inputs, targets, g, call)

    monkeypatch.setattr(ForecastModel, "loss_and_gradient", counting)
    cfg = CstiConfig(stocks=3, merge_rounds=2, finetune_epochs=2, seed=53)
    run_csti(train, "dlinear", cfg, jobs=jobs)
    sizes, width = [ds.n_windows for ds in train], jobs or 3  # None, the default: every stock
    per_epoch = _kernel_calls_per_epoch(sizes, width, cfg.batch_size)
    # 89, 124 and 166 windows in batches of 64
    assert per_epoch == {1: 7, 2: 6, 3: 5}[width]
    assert max(rows) <= width
    assert len(rows) == per_epoch * cfg.epochs_budget


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


def test_run_csti_runs_every_step_through_the_traced_kernel(small_market, monkeypatch):
    # the benchmark's traced run counts one loss_and_gradient span per kernel call
    train, _, _ = small_market
    calls = []
    kernel = ForecastModel.loss_and_gradient

    def counting(self, *args):
        calls.append(len(args[1]))
        return kernel(self, *args)

    monkeypatch.setattr(ForecastModel, "loss_and_gradient", counting)
    steps = _count_sgd_steps(monkeypatch)
    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=2, seed=47)
    result = run_csti(train, "dlinear", cfg, jobs=1)
    assert set(calls) == {1}
    assert len(calls) == sum(result.trace.lineage_update_steps) > 0
    # one step per (epoch, batch index), over every stock with a batch there
    batches = [-(-ds.n_windows // cfg.batch_size) for ds in train]
    assert len(steps) == cfg.epochs_budget * max(batches)
    assert max(steps) == len(train)


def test_run_normal_runs_every_step_through_the_traced_sgd_step(small_market, monkeypatch):
    train, _, _ = small_market
    steps = _count_sgd_steps(monkeypatch)
    result = run_normal(train, "dlinear", epochs_total=7, batch_size=32, seed=3)
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
        fixed.append(WindowedDataset(ds.stock_id, ds.split, ds.lookback, ds.horizon,
                                     ds.inputs, targets, ds.absolute_indices))
    result = run_csti(fixed, "dlinear", cfg)
    for round_global in result.trace.round_globals:
        assert np.array_equal(round_global.values, _params(init).values)


def test_budget_parity_on_equal_sized_stocks():
    train, _, _ = windowed_market(5, 300, 0.6, seed=17)
    cfg = CstiConfig(stocks=5, merge_rounds=5, finetune_epochs=5, seed=1)
    csti_result = run_csti(train, "dlinear", cfg)
    normal_result = run_normal(train, "dlinear", epochs_total=10, seed=1)
    # every csti lineage took exactly as many optimizer steps as the
    # normal strategy's single lineage (10 epochs of equal-sized data)
    assert set(csti_result.trace.lineage_update_steps) == set(
        normal_result.trace.lineage_update_steps
    )


def test_proximal_penalty_bounded_by_initial_loss(small_market):
    train, _, _ = small_market
    cfg = CstiConfig(stocks=3, merge_rounds=3, finetune_epochs=5, seed=19)
    result = run_csti(train, "paifilter", cfg)
    first_loss = {}
    for row in result.trace.rows:
        if row.phase == "finetune" and row.stock_id not in first_loss:
            first_loss[row.stock_id] = row.data_loss
    for row in result.trace.rows:
        if row.phase == "finetune":
            assert np.isfinite(row.prox_penalty)
            assert row.prox_penalty <= first_loss[row.stock_id]


def test_mismatched_window_shapes_rejected(small_market):
    train, _, _ = small_market
    other, _, _ = windowed_market(1, 200, 0.5, seed=99, lookback=8)
    odd = other[0]
    renamed = WindowedDataset("OTHER", odd.split, odd.lookback, odd.horizon,
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
def test_config_and_run_normal_reject_a_seed_that_is_not_an_integer_of_at_least_zero(
        small_market, seed):
    # 1.5 and True used to train as seed 1; -1 failed in numpy's SeedSequence
    with pytest.raises(ContractViolation, match="seed"):
        CstiConfig(stocks=2, seed=seed)
    with pytest.raises(ContractViolation, match="seed"):
        run_normal(small_market[0], "dlinear", epochs_total=3, seed=seed)


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
    with pytest.raises(ContractViolation, match=r"merge_weights\[1\]"):
        CstiConfig(stocks=2, merge_weights=(1.0, value))


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("field", ["learning rate", "momentum"])
def test_step_settings_reject_a_value_that_is_not_real(small_market, field, value):
    settings = {"learning_rate": 0.01, "momentum": 0.9, field.replace(" ", "_"): value}
    model = build_model("dlinear", 16, 1, 3, seed=8)
    with pytest.raises(ContractViolation, match=field):
        train_local(model, small_market[0][0], 1, batch_size=64, **settings)
    with pytest.raises(ContractViolation, match=field):
        run_normal(small_market[0], "dlinear", 3, **settings)


@pytest.mark.parametrize("weights", [(1.0, -1.0), (0.0, 0.0), (-1.0, 3.0), (1e308, 1e308)])
def test_merge_weights_must_be_non_negative_with_positive_sum(weights):
    # (1, -1) used to merge theta and theta + 1 into a vector of -0.5s
    with pytest.raises(ContractViolation, match="merge_weights"):
        CstiConfig(stocks=2, merge_weights=weights)
    # a zero weight is allowed while the sum stays positive
    assert CstiConfig(stocks=2, merge_weights=(0.0, 2.0)).weights() == (0.0, 2.0)


# ---------------------------------------------------------------------------
# run_normal
# ---------------------------------------------------------------------------

def test_normal_single_stock_is_plain_training(small_market):
    train, _, _ = small_market
    result = run_normal(train[:1], "dlinear", epochs_total=4, seed=5)
    assert len(result.snapshots) == 1
    assert len([r for r in result.trace.rows if r.phase == "normal"]) == 4


def test_normal_epoch_split_and_snapshots(small_market):
    train, _, _ = small_market
    result = run_normal(train[:2], "dlinear", epochs_total=10, seed=5)
    assert len(result.snapshots) == 2
    per_stock = {}
    for row in result.trace.rows:
        per_stock[row.stock_id] = per_stock.get(row.stock_id, 0) + 1
    assert set(per_stock.values()) == {5}
    a, b = (_params(s).values for s in result.snapshots)
    assert not np.array_equal(a, b)


def test_normal_requires_enough_epochs(small_market):
    train, _, _ = small_market
    with pytest.raises(ContractViolation):
        run_normal(train, "dlinear", epochs_total=2, seed=5)


@pytest.mark.parametrize("epochs_total", [7.5, True])
def test_normal_rejects_a_non_integer_epoch_budget(small_market, epochs_total):
    # 7.5 used to reach train_local as 2.0 epochs and fail there under another name
    with pytest.raises(ContractViolation, match="epochs_total"):
        run_normal(small_market[0], "dlinear", epochs_total=epochs_total, seed=5)


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
    twin = WindowedDataset(test[0].stock_id, "test", test[1].lookback, test[1].horizon,
                           test[1].inputs, test[1].targets, test[1].absolute_indices)
    models = [_OracleModel(ds.targets + 0.1) for ds in (test[0], twin)]
    with pytest.raises(ContractViolation, match=repr(test[0].stock_id)):
        evaluate(models, [test[0], twin])


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
