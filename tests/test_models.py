import tracemalloc

import numpy as np
import pytest

from csti.errors import (
    ContractViolation,
    MergeIncompatibilityError,
    ShapeMismatchError,
)
from csti import numerics
from csti.models import (
    MODEL_KINDS,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from csti.numerics import axpy_merge

from conftest import filter_series, filter_spectrum, random_batch, train_sanity_mse


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_dlinear_parameter_count():
    model = build_model("dlinear", 16, 1, 2, {"harmonics": 3})
    assert model.n_params == 2 + 2 * 3 + 2  # trend + harmonics + input mix


def test_paifilter_parameter_count():
    model = build_model("paifilter", 8, 1, 2)
    assert model.n_params == 2 * 8 + (8 + 1) * 1 + 2


def test_build_determinism():
    a = build_model("frets", 8, 2, 3, seed=99)
    b = build_model("frets", 8, 2, 3, seed=99)
    assert np.array_equal(a.export_params().values, b.export_params().values)


def test_layouts_merge_compatible_across_seeds():
    for kind in MODEL_KINDS:
        a = build_model(kind, 8, 1, 2, seed=1)
        b = build_model(kind, 8, 1, 2, seed=2)
        assert a.export_params().layout == b.export_params().layout
        assert not np.array_equal(a.export_params().values, b.export_params().values)


def test_build_validation():
    with pytest.raises(ContractViolation):
        build_model("nosuch", 8, 1, 2)
    with pytest.raises(ContractViolation):
        build_model("dlinear", 2, 1, 2)
    with pytest.raises(ContractViolation):
        build_model("dlinear", 8, 0, 2)
    with pytest.raises(ContractViolation):
        build_model("dlinear", 8, 1, 5)
    with pytest.raises(ContractViolation):
        build_model("dlinear", 8, 1, 2, {"harmonics": 0})
    with pytest.raises(ContractViolation):
        build_model("texfilter", 8, 1, 2, {"width": 4})


# ---------------------------------------------------------------------------
# prediction contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_output_length_and_determinism(kind, rng):
    model = build_model(kind, 8, 3, 2, seed=4)
    window = rng.uniform(0, 1, size=(8, 2))
    out = model.predict(window)
    assert out.shape == (3,)
    assert np.array_equal(out, model.predict(window))


def test_predict_shape_errors(rng):
    model = build_model("dlinear", 8, 1, 2)
    with pytest.raises(ShapeMismatchError):
        model.predict(rng.uniform(size=(7, 2)))
    with pytest.raises(ShapeMismatchError):
        model.loss(rng.uniform(size=(3, 8, 2)), rng.uniform(size=(3, 2)))


def _set_segment(model, name, values):
    pvec = model.export_params()
    flat = pvec.values.copy()
    for seg in pvec.layout:
        if seg.name == name:
            flat[seg.offset : seg.offset + seg.length] = np.asarray(values).reshape(-1)
    return model.import_params(pvec.replace(flat))


def _zeroed(model):
    pvec = model.export_params()
    return model.import_params(pvec.replace(np.zeros(model.n_params)))


def test_paifilter_identity_kernel_with_select_last_head(rng):
    L = 8
    model = _zeroed(build_model("paifilter", L, 1, 2))
    model = _set_segment(model, "kernel_re", np.ones(L))
    head = np.zeros(L)
    head[-1] = 1.0
    model = _set_segment(model, "head_weight", head)
    model = _set_segment(model, "input_mix", [0.0, 1.0])  # select close column
    window = rng.uniform(0, 1, size=(L, 2))
    assert model.predict(window)[0] == pytest.approx(window[-1, 1], abs=1e-9)


def test_paifilter_identity_filter_passes_series_through(rng):
    L = 8
    model = _zeroed(build_model("paifilter", L, 1, 2))
    model = _set_segment(model, "kernel_re", np.ones(L))
    z = rng.standard_normal((5, L))
    assert np.max(np.abs(filter_series(model, z) - z)) < 1e-9


@pytest.mark.parametrize("lookback", [4, 5, 8, 16])
def test_filter_operator_equals_the_dft_chain(lookback, rng):
    z = rng.standard_normal((9, lookback))
    k_re, k_im = rng.standard_normal((2, lookback))
    operator = np.concatenate([k_re, k_im]) @ numerics.filter_operator_basis(lookback)
    reference = filter_spectrum(*numerics.dft_batch(z), k_re, k_im)
    error = np.max(np.abs(z @ operator.reshape(lookback, lookback) - reference))
    assert error <= 1e-12 * np.max(np.abs(reference))


def test_dlinear_anchor_only_returns_last_mixed_value(rng):
    model = _zeroed(build_model("dlinear", 8, 1, 2))
    model = _set_segment(model, "input_mix", [0.0, 1.0])
    window = rng.uniform(0, 1, size=(8, 2))
    assert model.predict(window)[0] == pytest.approx(window[-1, 1], abs=1e-12)


def test_dlinear_seasonal_periodicity():
    # w_trend = 0, anchor off: forecast steps one period apart agree
    period = 8
    model = build_model(
        "dlinear", 8, period + 1, 2,
        {"harmonics": 3, "period": float(period), "use_anchor": False},
        seed=6,
    )
    model = _set_segment(model, "trend", [0.0, 0.4])  # zero slope, free intercept
    window = np.random.default_rng(8).uniform(0, 1, size=(8, 2))
    out = model.predict(window)
    assert out[period] == pytest.approx(out[0], abs=1e-9)


def test_frets_zero_networks_output_head_bias(rng):
    model = _zeroed(build_model("frets", 8, 2, 2))
    model = _set_segment(model, "head_bias", [0.25, -0.5])
    window = rng.uniform(0, 1, size=(8, 2))
    assert np.allclose(model.predict(window), [0.25, -0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_examples(rng):
    model = build_model("dlinear", 8, 1, 2, seed=3)
    inputs, _ = random_batch(rng, 4, 8, 2, 1)
    perfect = model.predict_batch(inputs)
    assert model.loss(inputs, perfect) == 0.0

    single = model.predict_batch(inputs[:1])
    assert model.loss(inputs[:1], single + 0.2) == pytest.approx(0.04)

    targets = rng.uniform(size=(4, 1))
    assert model.loss(inputs, targets) >= 0.0


def test_loss_empty_batch_rejected():
    model = build_model("dlinear", 8, 1, 2)
    with pytest.raises(ContractViolation):
        model.loss(np.zeros((0, 8, 2)), np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# parameter import/export
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_import_export_roundtrip(kind, rng):
    model = build_model(kind, 8, 1, 2, seed=10)
    clone = model.import_params(model.export_params())
    window = rng.uniform(0, 1, size=(8, 2))
    assert np.array_equal(clone.predict(window), model.predict(window))


def test_consensus_merge_leaves_predictions_unchanged(rng):
    model = build_model("texfilter", 8, 1, 2, seed=11)
    params = model.export_params()
    merged = axpy_merge(np.tile(params.values, (3, 1)), [1.0] * 3)
    clone = model.import_params(params.replace(merged))
    window = rng.uniform(0, 1, size=(8, 2))
    assert np.allclose(clone.predict(window), model.predict(window), atol=1e-12)


def test_import_wrong_length_rejected():
    a = build_model("paifilter", 8, 1, 2)
    b = build_model("paifilter", 16, 1, 2)
    with pytest.raises(MergeIncompatibilityError):
        a.import_params(b.export_params())


def test_checkpoint_roundtrip(tmp_path, rng):
    model = build_model("frets", 8, 1, 3, {"hidden": 4}, seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.kind == "frets" and back.hyper == model.hyper
    window = rng.uniform(0, 1, size=(8, 3))
    assert np.array_equal(back.predict(window), model.predict(window))


# ---------------------------------------------------------------------------
# stacked kernels: each row of a (K, P) call equals the one-row call
# ---------------------------------------------------------------------------

def _loss_and_gradient(model, theta, inputs, targets, fill=0.0):
    """The kernel over a theta stack, into a gradient stack pre-filled with ``fill``."""
    grad = np.full(theta.shape, fill)
    losses = model.loss_and_gradient(model.unpack(theta), inputs, targets, model.unpack(grad))
    return losses, grad


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("k_rows", [1, 2, 5])
def test_stacked_rows_equal_one_row_calls(kind, horizon, k_rows, rng):
    model = build_model(kind, 8, horizon, 3, seed=21)
    n = 13  # not a multiple of 8
    theta = rng.uniform(-0.5, 0.5, size=(k_rows, model.n_params))
    inputs = rng.uniform(0.0, 1.0, size=(k_rows, n, 8, 3))
    targets = rng.uniform(0.0, 1.0, size=(k_rows, n, horizon))
    losses, grad = _loss_and_gradient(model, theta, inputs, targets)
    assert losses.shape == (k_rows,) and grad.shape == theta.shape
    for k in range(k_rows):
        loss_k, grad_k = _loss_and_gradient(model, theta[k:k + 1], inputs[k:k + 1], targets[k:k + 1])
        assert np.array_equal(losses[k:k + 1], loss_k)
        assert np.array_equal(grad[k:k + 1], grad_k)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_stacked_rows_equal_one_row_calls_past_numpy_temporary_elision(kind, rng):
    # numpy reuses a temporary operand as the output once it passes 256 KiB;
    # a (24, 64, 16) complex128 array is 384 KiB, a one-row call's 16 KiB
    model = build_model(kind, 16, 1, 3, seed=21)
    theta = model.export_params().values + rng.uniform(-0.05, 0.05, size=(24, model.n_params))
    inputs = rng.uniform(0.0, 1.0, size=(24, 64, 16, 3))
    targets = rng.uniform(0.0, 1.0, size=(24, 64, 1))
    losses, grad = _loss_and_gradient(model, theta, inputs, targets)
    for k in range(24):
        loss_k, grad_k = _loss_and_gradient(model, theta[k:k + 1], inputs[k:k + 1], targets[k:k + 1])
        assert np.array_equal(losses[k:k + 1], loss_k)
        assert np.array_equal(grad[k:k + 1], grad_k), f"row {k}"


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 2, 3])
def test_bound_call_gives_the_same_bits_as_a_one_off_call(kind, k_rows, rng):
    # a trainer binds each call once over views of its own buffers, shares one
    # workspace per (rows, batch size), and rewrites theta and the windows
    # between runs; 64 is the full batch and 37 a short last one
    model = build_model(kind, 16, 1, 3, seed=21)
    start = model.export_params().values
    for n in (64, 37):
        theta, grad = np.empty((k_rows, model.n_params)), np.empty((k_rows, model.n_params))
        windows, targets = np.empty((k_rows, 80, 16, 3)), np.empty((k_rows, 80, 1))
        inputs, batch_targets = windows[:, :n], targets[:, :n]  # slices, as the trainer's are
        call = model.bind(model.unpack(theta), inputs, batch_targets, model.unpack(grad),
                          model.workspace(k_rows, n))
        for _ in range(2):  # the second run overwrites the first one's temporaries
            theta[...] = start + rng.uniform(-0.1, 0.1, theta.shape)
            windows[...] = rng.uniform(0.0, 1.0, size=windows.shape)
            targets[...] = rng.uniform(0.0, 1.0, size=targets.shape)
            grad[...] = np.nan
            losses = model.loss_and_gradient(model.unpack(theta), inputs, batch_targets,
                                             model.unpack(grad), call).copy()
            one_off = np.full(theta.shape, np.nan)
            expected = model.loss_and_gradient(model.unpack(theta.copy()), inputs.copy(),
                                               batch_targets.copy(), model.unpack(one_off))
            assert losses.tobytes() == expected.tobytes()
            assert grad.tobytes() == one_off.tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 2, 3])
def test_a_row_step_gives_the_same_bits_as_one_off_calls(kind, k_rows, rng):
    # a trainer's step at one batch index: one prologue over the active rows,
    # one data call per run of rows with the same batch size, one epilogue and
    # one divide; row 0 has no batch there, and the last row's batch is short
    model = build_model(kind, 16, 2, 3, seed=21)
    start = model.export_params().values
    theta, grad = np.empty((k_rows + 1, model.n_params)), np.empty((k_rows + 1, model.n_params))
    losses, sizes = np.zeros((k_rows + 1, 3)), np.zeros((k_rows + 1, 3))
    rows_ws = model.workspace(k_rows + 1)
    n = [0] + [64] * (k_rows - 1) + [37]
    inputs = [np.empty((1, size, 16, 3)) for size in n]
    targets = [np.empty((1, size, 2)) for size in n]

    def views(rows):
        return (model.unpack(theta[rows]), model.unpack(grad[rows]),
                {name: buf[rows] for name, buf in rows_ws.items()})

    calls = []
    for lo, hi in ((1, k_rows), (k_rows, k_rows + 1)):
        if lo < hi:  # the trainer's batch views are slices of its shuffled windows
            batch = np.empty((hi - lo, 80, 16, 3)), np.empty((hi - lo, 80, 2))
            inputs[lo:hi] = [batch[0][r : r + 1, : n[lo]] for r in range(hi - lo)]
            targets[lo:hi] = [batch[1][r : r + 1, : n[lo]] for r in range(hi - lo)]
            p, g, row_views = views(slice(lo, hi))
            ws = dict(model.workspace(hi - lo, n[lo]), losses=losses[lo:hi, 1], **row_views)
            calls.append(model.bind_batch(p, batch[0][:, : n[lo]], batch[1][:, : n[lo]], g, ws))
            sizes[lo:hi, 1] = n[lo] * model.horizon
    active = slice(1, k_rows + 1)
    p, g, row_views = views(active)
    prologue, epilogue = model.bind_rows(p, row_views, g)
    for _ in range(2):  # the second step overwrites the first one's buffers
        theta[...] = start + rng.uniform(-0.1, 0.1, theta.shape)
        for x, y in zip(inputs[1:], targets[1:]):
            x[...], y[...] = rng.uniform(0.0, 1.0, x.shape), rng.uniform(0.0, 1.0, y.shape)
        grad[...] = np.nan
        prologue()
        for call in calls:
            call()
        epilogue()
        np.divide(losses[active, 1], sizes[active, 1], out=losses[active, 1])
        assert np.isnan(grad[0]).all() and not np.isnan(grad[active]).any()
        for r in range(1, k_rows + 1):
            one_off = np.full((1, model.n_params), np.nan)
            expected = model.loss_and_gradient(model.unpack(theta[r:r + 1].copy()),
                                               inputs[r].copy(), targets[r].copy(),
                                               model.unpack(one_off))
            assert losses[r:r + 1, 1].tobytes() == expected.tobytes()
            assert grad[r:r + 1].tobytes() == one_off.tobytes()


def test_texfilter_prediction_allocates_no_backward_buffer(rng):
    model = build_model("texfilter", 16, 1, 3, seed=21)
    inputs = rng.uniform(0.0, 1.0, size=(64, 16, 3))
    full, forward = (sum(buf.nbytes for buf in model.workspace(1, 64, backward).values())
                     for backward in (True, False))
    assert not {"dk", "du", "dw1"} & set(model.workspace(1, 64, backward=False))
    tracemalloc.start()
    try:
        model.predict_batch(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward <= peak < full


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 3])
def test_kernel_writes_every_gradient_coordinate(kind, k_rows, rng):
    # the trainer reuses one gradient stack across steps, so a coordinate
    # the kernel skipped would carry the previous step's value
    model = build_model(kind, 8, 2, 3, seed=21)
    theta = rng.uniform(-0.5, 0.5, size=(k_rows, model.n_params))
    inputs = rng.uniform(0.0, 1.0, size=(k_rows, 11, 8, 3))
    targets = rng.uniform(0.0, 1.0, size=(k_rows, 11, 2))
    zero_losses, zero_grad = _loss_and_gradient(model, theta, inputs, targets, fill=0.0)
    nan_losses, nan_grad = _loss_and_gradient(model, theta, inputs, targets, fill=np.nan)
    assert np.array_equal(zero_losses, nan_losses)
    assert zero_grad.tobytes() == nan_grad.tobytes()


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 3])
def test_kernel_writes_only_the_gradient_stack(kind, k_rows, rng):
    model = build_model(kind, 8, 2, 3, seed=21)
    theta = rng.uniform(-0.5, 0.5, size=(k_rows, model.n_params))
    inputs = rng.uniform(0.0, 1.0, size=(k_rows, 11, 8, 3))
    targets = rng.uniform(0.0, 1.0, size=(k_rows, 11, 2))
    before = [a.tobytes() for a in (theta, inputs, targets)]
    _loss_and_gradient(model, theta, inputs, targets)
    assert [a.tobytes() for a in (theta, inputs, targets)] == before


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 3])
def test_forward_returns_a_fresh_prediction(kind, k_rows, rng):
    # the shared loss turns the prediction into d(loss)/d(pred) in place, so
    # it must have a buffer of its own
    model = build_model(kind, 8, 2, 3, seed=21)
    theta = rng.uniform(-0.5, 0.5, size=(k_rows, model.n_params))
    inputs = rng.uniform(0.0, 1.0, size=(k_rows, 11, 8, 3))
    workspace = model.workspace(k_rows, 11)
    pred = model.bind(model.unpack(theta), inputs, ws=workspace)()
    assert pred.shape == (k_rows, 11, 2) and pred.flags.writeable
    assert pred is workspace["pred"]
    others = [buf for name, buf in workspace.items() if name != "pred"]
    for held in (theta, inputs, *others):
        assert not np.shares_memory(pred, held)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 3])
def test_group_views_are_their_segments_viewed_as_one(kind, k_rows, rng):
    model = build_model(kind, 8, 2, 3, seed=21)
    assert set(model.groups) == {"dlinear": {"coef"}, "paifilter": {"kernel"}}.get(kind, set())
    stack = rng.uniform(-0.5, 0.5, size=(k_rows, model.n_params))
    views = model.unpack(stack)
    names = [seg.name for seg in model.export_params().layout]
    for group, (first, last) in model.groups.items():
        members = names[names.index(first) : names.index(last) + 1]
        assert len(members) >= 2
        assert all(np.shares_memory(views[group], views[m]) for m in members)
        joined = np.concatenate([views[m].reshape(k_rows, -1) for m in members], axis=1)
        assert views[group].shape == joined.shape
        assert np.array_equal(views[group], joined)
        views[group][...] = 7.0  # writes show through every member and the stack
        assert all((views[m] == 7.0).all() for m in members)
        assert (stack == 7.0).sum() == joined.size


# ---------------------------------------------------------------------------
# training sanity: each kind fits its matched sinusoid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_training_sanity_on_matched_sinusoid(kind):
    assert train_sanity_mse(kind) < 1e-3
