import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csti.errors import (
    ContractViolation,
    MergeIncompatibilityError,
    NumericInputError,
    ShapeMismatchError,
)
from csti import numerics
from csti.models import (
    MODEL_KINDS,
    bind_sum_of_squares,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from csti.numerics import ParamVector, axpy_merge

from conftest import (
    circulant_operator,
    dlinear_reference,
    filter_series,
    filter_spectrum,
    loss_and_gradient,
    paifilter_reference,
    predict_one,
    random_batch,
    train_sanity_mse,
)


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


@pytest.mark.parametrize("seed", [1.5, True, -1, "1"])
def test_build_model_rejects_a_seed_that_is_not_an_integer_of_at_least_zero(seed):
    # int(seed) used to build seed 1's model for 1.5, True and "1", and -1 escaped as
    # numpy's raw ValueError
    with pytest.raises(ContractViolation, match=rf"^seed: integer >= 0 required, got {seed!r}$"):
        build_model("dlinear", 8, 1, 2, seed=seed)


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
    # integers beyond the float range, which float() used to reject with a raw OverflowError
    with pytest.raises(ContractViolation, match="period"):
        build_model("dlinear", 16, 1, 2, {"period": 10**400})
    with pytest.raises(ContractViolation, match="lookback"):
        build_model("dlinear", 10**400, 1, 2)


# numpy refuses both at once: 10**11 wants terabytes, 10**18 more elements than an index holds
@pytest.mark.parametrize("hidden", [10**11, 10**18])
@pytest.mark.parametrize("kind", ["texfilter", "frets"])
def test_a_width_too_large_to_allocate_names_its_kind(kind, hidden):
    # it used to escape from the init draw as numpy's MemoryError or ValueError
    with pytest.raises(ContractViolation, match=rf"^{kind}: the parameters of \{{'hidden': "
                                                rf"{hidden}\}} are too many to allocate: "):
        build_model(kind, 16, 1, 3, {"hidden": hidden})


# numpy refuses each at once: past its sizes, or, at 10**400, past the float range
@pytest.mark.parametrize("kind,hyper", [
    ("frets", {"hidden": 2**64}), ("frets", {"hidden": 10**20}), ("frets", {"hidden": 10**400}),
    ("dlinear", {"harmonics": 2**64}), ("dlinear", {"harmonics": 10**400}),
], ids=["frets-2**64", "frets-10**20", "frets-10**400", "dlinear-2**64", "dlinear-10**400"])
def test_a_width_past_numpys_sizes_names_its_kind(kind, hyper):
    # the init bound took np.sqrt of the width, which raised a raw TypeError at 2**64 and up
    with pytest.raises(ContractViolation, match=rf"^{kind}: the parameters of .* are too many "
                                                "to allocate: "):
        build_model(kind, 16, 1, 3, hyper)


def test_a_checkpoint_of_a_width_past_the_float_range_fails_naming_the_file(tmp_path):
    model = build_model("frets", 8, 1, 2, {"hidden": 4}, seed=12)
    path = tmp_path / "huge.ckpt"
    numerics.save_container(path, "checkpoint", model.export_params(), kind="frets", lookback=8,
                            horizon=1, n_features=2, hyper={"hidden": 10**400})
    with pytest.raises(ContractViolation, match=re.escape(f"{path}: ")):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# prediction contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_output_length_and_determinism(kind, rng):
    model = build_model(kind, 8, 3, 2, seed=4)
    window = rng.uniform(0, 1, size=(8, 2))
    out = predict_one(model, window)
    assert out.shape == (3,)
    assert np.array_equal(out, predict_one(model, window))


def test_predict_shape_errors(rng):
    model = build_model("dlinear", 8, 1, 2)
    with pytest.raises(ShapeMismatchError):
        model.predict_batch(rng.uniform(size=(1, 7, 2)))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_batch_rejects_windows_of_the_wrong_shape(kind):
    model = build_model(kind, 16, 1, 3)
    for shape in ((5, 8, 3), (5, 16, 2), (16, 3), (5, 17, 3), (5, 16, 3, 1)):
        with pytest.raises(ShapeMismatchError, match=r"batch inputs must be \(N, 16, 3\)"):
            model.predict_batch(np.ones(shape))
    with pytest.raises(ContractViolation, match="non-empty"):
        model.predict_batch(np.ones((0, 16, 3)))
    assert model.predict_batch(np.ones((5, 16, 3))).shape == (5, 1)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_entry_point_rejects_a_non_finite_window(kind, bad, rng):
    # predict_batch used to return NaN here
    model = build_model(kind, 16, 1, 3)
    inputs, _ = random_batch(rng, 4, 16, 3, 1)
    inputs[1, -1, 0] = bad
    with pytest.raises(NumericInputError, match="non-finite"):
        model.predict_batch(inputs)


def _set_segment(model, name, values):
    pvec = model.export_params()
    flat = pvec.values.copy()
    view = model.unpack(flat[None])[name]
    view[...] = np.reshape(values, view.shape)
    return model.import_params(pvec.replace(flat))


def _zeroed(model):
    pvec = model.export_params()
    return model.import_params(pvec.replace(np.zeros(model.n_params)))


def test_paifilter_identity_kernel_with_select_last_head(rng):
    L = 8
    model = _zeroed(build_model("paifilter", L, 1, 2))
    model = _set_segment(model, "kernel", np.repeat([1.0, 0.0], L))  # [k_re | k_im]
    head = np.zeros(L)
    head[-1] = 1.0
    model = _set_segment(model, "head_weight", head)
    model = _set_segment(model, "input_mix", [0.0, 1.0])  # select close column
    window = rng.uniform(0, 1, size=(L, 2))
    assert predict_one(model, window)[0] == pytest.approx(window[-1, 1], abs=1e-9)


def test_paifilter_identity_filter_passes_series_through(rng):
    L = 8
    model = _zeroed(build_model("paifilter", L, 1, 2))
    model = _set_segment(model, "kernel", np.repeat([1.0, 0.0], L))  # [k_re | k_im]
    z = rng.standard_normal((5, L))
    assert np.max(np.abs(filter_series(model, z) - z)) < 1e-9


@pytest.mark.parametrize("lookback", [4, 5, 8, 16])
def test_filter_operator_equals_the_dft_chain(lookback, rng):
    z = rng.standard_normal((9, lookback))
    k_re, k_im = rng.standard_normal((2, lookback))
    operator = circulant_operator(np.concatenate([k_re, k_im]))
    reference = filter_spectrum(*numerics.dft_batch(z), k_re, k_im)
    error = np.max(np.abs(z @ operator - reference))
    assert error <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("lookback", [4, 5, 8, 16])
def test_frets_planar_transforms_equal_the_dft_chain(lookback, rng):
    L = lookback
    model = build_model("frets", L, 2, 2, {"hidden": 6}, seed=4)
    inputs, targets = random_batch(rng, 9, L, 2, 2)
    p, grad = model.unpack(model.export_params().values[None]), np.empty((1, model.n_params))
    ws = model.workspace(1, 9)
    model.bind(p, model.rows_read(inputs)[None], targets[None], model.unpack(grad), ws)()
    z, s, x, dx, ds = (ws[name][0] for name in ("z", "s", "x", "dx", "ds"))
    drecon = ws["pred"][0] @ p["head_weight"][0]  # the unscaled residual, back through the head
    pairs = [(s, np.concatenate(numerics.dft_batch(z), axis=1)),  # [re | im] rows
             (ws["recon"][0], numerics.real_idft_batch(x[:, :L], x[:, L:])),
             (dx, np.concatenate(numerics.real_idft_batch_adjoint(drecon), axis=1)),
             (ws["drecon"][0], numerics.dft_batch_adjoint(ds[:, :L], ds[:, L:]))]  # dz by then
    for got, reference in pairs:
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_dlinear_anchor_only_returns_last_mixed_value(rng):
    model = _zeroed(build_model("dlinear", 8, 1, 2))
    model = _set_segment(model, "input_mix", [0.0, 1.0])
    window = rng.uniform(0, 1, size=(8, 2))
    assert predict_one(model, window)[0] == pytest.approx(window[-1, 1], abs=1e-12)


def test_dlinear_seasonal_periodicity():
    # w_trend = 0, anchor off: forecast steps one period apart agree
    period = 8
    model = build_model(
        "dlinear", 8, period + 1, 2,
        {"harmonics": 3, "period": float(period), "use_anchor": False},
        seed=6,
    )
    coef = model.unpack(model.export_params().values[None])["coef"][0].copy()
    coef[:2] = [0.0, 0.4]  # zero trend slope, free intercept
    model = _set_segment(model, "coef", coef)
    window = np.random.default_rng(8).uniform(0, 1, size=(8, 2))
    out = predict_one(model, window)
    assert out[period] == pytest.approx(out[0], abs=1e-9)


def test_frets_zero_networks_output_head_bias(rng):
    model = _zeroed(build_model("frets", 8, 2, 2))
    model = _set_segment(model, "head_bias", [0.25, -0.5])
    window = rng.uniform(0, 1, size=(8, 2))
    assert np.allclose(predict_one(model, window), [0.25, -0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_examples(rng):
    model = build_model("dlinear", 8, 1, 2, seed=3)
    inputs, _ = random_batch(rng, 4, 8, 2, 1)
    perfect = model.predict_batch(inputs)
    assert loss_and_gradient(model, inputs, perfect)[0] == 0.0

    single = model.predict_batch(inputs[:1])
    assert loss_and_gradient(model, inputs[:1], single + 0.2)[0] == pytest.approx(0.04)

    targets = rng.uniform(size=(4, 1))
    assert loss_and_gradient(model, inputs, targets)[0] >= 0.0


# ---------------------------------------------------------------------------
# parameter import/export
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_import_export_roundtrip(kind, rng):
    model = build_model(kind, 8, 1, 2, seed=10)
    clone = model.import_params(model.export_params())
    window = rng.uniform(0, 1, size=(8, 2))
    assert np.array_equal(predict_one(clone, window), predict_one(model, window))


def test_consensus_merge_leaves_predictions_unchanged(rng):
    model = build_model("texfilter", 8, 1, 2, seed=11)
    params = model.export_params()
    merged = axpy_merge(np.tile(params.values, (3, 1)), [1.0] * 3)
    clone = model.import_params(params.replace(merged))
    window = rng.uniform(0, 1, size=(8, 2))
    assert np.allclose(predict_one(clone, window), predict_one(model, window), atol=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_export_and_import_hold_the_vector_itself(kind):
    model = build_model(kind, 8, 1, 2, seed=10)
    assert model.export_params() is model.export_params()
    pvec = build_model(kind, 8, 1, 2, seed=11).export_params()
    assert model.import_params(pvec).export_params() is pvec


def test_import_wrong_length_rejected():
    a = build_model("paifilter", 8, 1, 2)
    b = build_model("paifilter", 16, 1, 2)
    with pytest.raises(MergeIncompatibilityError):
        a.import_params(b.export_params())
    # the right number of values, split into segments the model does not have
    resplit = ParamVector(a.export_params().values, [("kernel", 16), ("head", 11)])
    with pytest.raises(MergeIncompatibilityError):
        a.import_params(resplit)


def test_checkpoint_roundtrip(tmp_path, rng):
    model = build_model("frets", 8, 1, 3, {"hidden": 4}, seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.kind == "frets" and back.hyper == model.hyper
    window = rng.uniform(0, 1, size=(8, 3))
    assert np.array_equal(predict_one(back, window), predict_one(model, window))


# lookback 8, horizon 1, 2 features: the layouts written before every tensor
# a kernel reads became one segment of (re, im) pairs or of adjacent parts
_SPLIT_LAYOUTS = {
    "dlinear": [("trend", 2), ("seasonal_cos", 3), ("seasonal_sin", 3), ("input_mix", 2)],
    "paifilter": [("kernel_re", 8), ("kernel_im", 8), ("head_weight", 8), ("head_bias", 1),
                  ("input_mix", 2)],
    "texfilter": [("filter_w1_re", 32), ("filter_w1_im", 32), ("filter_b1_re", 4),
                  ("filter_b1_im", 4), ("filter_gate_bias", 4), ("filter_w2_re", 32),
                  ("filter_w2_im", 32), ("filter_b2_re", 8), ("filter_b2_im", 8),
                  ("head_weight", 8), ("head_bias", 1), ("input_mix", 2)],
}


@pytest.mark.parametrize("kind", sorted(_SPLIT_LAYOUTS))
def test_checkpoint_of_a_split_layout_fails_naming_the_file(kind, tmp_path):
    # the values fit in number, so only the layout tells the old format apart
    model = build_model(kind, 8, 1, 2, {"hidden": 4} if kind == "texfilter" else None, seed=12)
    header = dict(kind=kind, lookback=8, horizon=1, n_features=2, hyper=model.hyper)
    values = model.export_params().values
    for layout, path in ((model.export_params().layout, tmp_path / "now.ckpt"),
                         (_SPLIT_LAYOUTS[kind], tmp_path / "split.ckpt")):
        numerics.save_container(path, "checkpoint", ParamVector(values, layout), **header)
    assert np.array_equal(load_checkpoint(tmp_path / "now.ckpt").export_params().values, values)
    with pytest.raises(ContractViolation, match=re.escape(f"{tmp_path / 'split.ckpt'}: ")):
        load_checkpoint(tmp_path / "split.ckpt")


# ---------------------------------------------------------------------------
# stacked kernels: each row of a (K, P) call equals the one-row call
# ---------------------------------------------------------------------------

def _loss_and_gradient(model, theta, inputs, targets, fill=0.0):
    """The kernel over a theta stack and the designs of (K, N, L, d) windows, into a
    gradient stack pre-filled with ``fill``."""
    grad = np.full(theta.shape, fill)
    losses = model.loss_and_gradient(model.unpack(theta), model.rows_read(inputs), targets,
                                     model.unpack(grad))
    return losses, grad


def _design_shape(model):
    """The shape of one window's ``rows_read`` design."""
    return model.rows_read(np.zeros((1, model.lookback, model.n_features))).shape[1:]


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


@pytest.mark.parametrize("lookback", [5, 16])
@pytest.mark.parametrize("horizon", [1, 3])
def test_paifilter_bind_rows_give_the_bits_of_one_row_calls(lookback, horizon, rng):
    # the reversed circulant view of the taps and the Hankel view of the head
    # weight, at odd L and at H > 1: every row of a K-row bind call, forward
    # and backward, holds the bits of its own K=1 call
    model = build_model("paifilter", lookback, horizon, 3, seed=21)
    theta = model.export_params().values + rng.uniform(-0.5, 0.5, size=(3, model.n_params))
    inputs = model.rows_read(rng.uniform(0.0, 1.0, size=(3, 11, lookback, 3)))
    targets = rng.uniform(0.0, 1.0, size=(3, 11, horizon))

    def run(rows):
        p, grad = model.unpack(theta[rows]), np.full(theta[rows].shape, np.nan)
        pred = model.bind(p, inputs[rows])().copy()
        losses = model.bind(p, inputs[rows], targets[rows], model.unpack(grad))()
        return pred, losses, grad

    one_row = [run(slice(k, k + 1)) for k in range(3)]
    for k_rows in (1, 2, 3):
        for k, stacked in enumerate(zip(*run(slice(0, k_rows)))):
            assert all(a.tobytes() == b[0].tobytes() for a, b in zip(stacked, one_row[k]))


def test_paifilter_gradient_at_lookback_128_holds_no_quadratic_operator(rng):
    # G and the Hankel form of W are views of O(L) buffers; the (2L, L^2)
    # operator basis this replaced held 32 MiB at L = 128 by itself
    model = build_model("paifilter", 128, 1, 3, seed=3)
    inputs, targets = random_batch(rng, 64, 128, 3, 1)
    assert max(buf.size for buf in model.workspace(1).values()) < 128 * 128
    tracemalloc.start()
    try:
        loss_and_gradient(model, inputs, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


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


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), data=st.data())
def test_a_kind_reads_only_its_declared_window_rows(kind, data):
    # the trainer keeps and shuffles only each window's ``rows_read`` design,
    # so every path must read the window through it alone: cells the design
    # does not copy leave every output's bits unchanged, and the last row,
    # which every kind reads, shows in every output
    model = build_model(kind, 16, 2, 3, seed=data.draw(st.integers(0, 3), label="seed"))
    n = data.draw(st.integers(1, 9), label="windows")
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    inputs = data.draw(hnp.arrays(np.float64, (n, 16, 3), elements=unit), label="inputs")
    targets = data.draw(hnp.arrays(np.float64, (n, 2), elements=unit), label="targets")
    cells = np.arange(2.0, 16 * 3 + 2).reshape(1, 16, 3)  # distinct, and none is the ones column
    unread = ~np.isin(cells[0], model.rows_read(cells))
    assert not unread[-1].any()
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    perturbed = inputs.copy()
    perturbed[:, unread] = data.draw(
        hnp.arrays(np.float64, (n, int(unread.sum())), elements=finite), label="unread cells")
    theta = model.export_params().values[None]

    def outputs(x):
        design = model.rows_read(x)
        grad = np.empty_like(theta)
        loss = model.loss_and_gradient(model.unpack(theta), design[None], targets[None],
                                       model.unpack(grad))
        pred = model.bind(model.unpack(theta), design[None])()
        return (design.tobytes(), loss.tobytes(), grad.tobytes(), pred.tobytes(),
                loss_and_gradient(model, x, targets)[1].values.tobytes(),
                model.predict_batch(x).tobytes())

    assert outputs(perturbed) == outputs(inputs)
    changed = inputs.copy()
    changed[:, -1] += 1.0
    assert all(a != b for a, b in zip(outputs(changed), outputs(inputs)))


_REFERENCES = {"dlinear": dlinear_reference, "paifilter": paifilter_reference}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_REFERENCES)), lookback=st.integers(4, 20),
       horizon=st.integers(1, 4), d=st.sampled_from([2, 3]), n=st.integers(1, 40),
       use_anchor=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_affine_kinds_agree_with_their_two_stage_reference(kind, lookback, horizon, d, n,
                                                            use_anchor, seed):
    # one product over the ones-augmented design against the separate mix,
    # filter or curve and head stages: the same maps, rounded differently
    hyper = {"use_anchor": use_anchor} if kind == "dlinear" else None
    model = build_model(kind, lookback, horizon, d, hyper, seed=seed % 7)
    gen = np.random.default_rng(seed)
    model = model.import_params(model.export_params().replace(
        gen.uniform(-1.0, 1.0, model.n_params)))
    inputs, targets = random_batch(gen, n, lookback, d, horizon)
    expected = _REFERENCES[kind](model, inputs, targets)
    loss, grad = loss_and_gradient(model, inputs, targets)
    got = model.predict_batch(inputs), loss, grad.values
    for a, b in zip(got, expected):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))


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
        designs, targets = np.empty((k_rows, 80, *_design_shape(model))), np.empty((k_rows, 80, 1))
        inputs, batch_targets = designs[:, :n], targets[:, :n]  # slices, as the trainer's are
        call = model.bind(model.unpack(theta), inputs, batch_targets, model.unpack(grad),
                          model.workspace(k_rows, n))
        for _ in range(2):  # the second run overwrites the first one's temporaries
            theta[...] = start + rng.uniform(-0.1, 0.1, theta.shape)
            designs[...] = model.rows_read(rng.uniform(0.0, 1.0, size=(k_rows, 80, 16, 3)))
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
    # one data call per block and run of rows with the same batch size, each
    # leaving its residuals in its rows of one (K, 64 * H) stack, one epilogue,
    # then one dot r . r per run of rows with the same batch size, across
    # blocks, one divide and one gradient scale. Row 0 has no batch there,
    # rows 1 and 2 short ones of 21 and 37, and the k_rows full rows
    # after them are split over two blocks
    model = build_model(kind, 16, 2, 3, seed=21)
    h, start = model.horizon, model.export_params().values
    n = [0, 21, 37] + [64] * k_rows
    theta, grad = np.empty((len(n), model.n_params)), np.empty((len(n), model.n_params))
    losses, residuals = np.zeros(len(n)), np.empty((len(n), 64 * h))
    rows_ws, shape = model.workspace(len(n)), _design_shape(model)
    inputs = [np.empty((1, size, *shape)) for size in n]
    targets = [np.empty((1, size, h)) for size in n]

    def views(rows):
        return (model.unpack(theta[rows]), model.unpack(grad[rows]),
                {name: buf[rows] for name, buf in rows_ws.items()})

    calls = []
    for lo, hi in ((1, 2), (2, 3), (3, 4), (4, len(n))):
        if lo < hi:  # the trainer's batch views are slices of its shuffled designs
            size, rows = n[lo], slice(lo, hi)
            batch = np.empty((hi - lo, 80, *shape)), np.empty((hi - lo, 80, h))
            inputs[rows] = [batch[0][r : r + 1, :size] for r in range(hi - lo)]
            targets[rows] = [batch[1][r : r + 1, :size] for r in range(hi - lo)]
            p, g, row_views = views(rows)
            pred = residuals[rows, : size * h].reshape(hi - lo, size, h)
            ws = dict(model.workspace(hi - lo, size), pred=pred, **row_views)
            calls.append(model.bind_batch(p, batch[0][:, :size], batch[1][:, :size], g, ws))
    sums = [bind_sum_of_squares(residuals[lo:hi, : n[lo] * h], losses[lo:hi])
            for lo, hi in ((1, 2), (2, 3), (3, len(n)))]
    active = slice(1, len(n))
    divisors = np.array(n[active], dtype=np.float64) * h
    p, g, row_views = views(active)
    prologue, epilogue = model.bind_rows(p, row_views, g)
    for _ in range(2):  # the second step overwrites the first one's buffers
        theta[...] = start + rng.uniform(-0.1, 0.1, theta.shape)
        for x, y in zip(inputs[active], targets[active]):
            x[...] = model.rows_read(rng.uniform(0.0, 1.0, (*x.shape[:2], 16, 3)))
            y[...] = rng.uniform(0.0, 1.0, y.shape)
        grad[...], losses[...] = np.nan, np.nan
        prologue()
        for call in calls:
            call()
        epilogue()
        for sum_of_squares in sums:
            sum_of_squares()
        np.divide(losses[active], divisors, out=losses[active])
        np.multiply(grad[active], 2.0 / divisors[:, None], out=grad[active])
        assert np.isnan(grad[0]).all() and not np.isnan(grad[active]).any()
        for r in range(1, len(n)):
            one_off = np.full((1, model.n_params), np.nan)
            expected = model.loss_and_gradient(model.unpack(theta[r:r + 1].copy()),
                                               inputs[r].copy(), targets[r].copy(),
                                               model.unpack(one_off))
            assert losses[r:r + 1].tobytes() == expected.tobytes(), f"row {r}"
            assert grad[r:r + 1].tobytes() == one_off.tobytes(), f"row {r}"


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
    inputs = model.rows_read(rng.uniform(0.0, 1.0, size=(k_rows, 11, 8, 3)))
    targets = rng.uniform(0.0, 1.0, size=(k_rows, 11, 2))
    before = [a.tobytes() for a in (theta, inputs, targets)]
    model.loss_and_gradient(model.unpack(theta), inputs, targets, model.unpack(np.empty_like(theta)))
    assert [a.tobytes() for a in (theta, inputs, targets)] == before


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 3])
def test_forward_returns_a_fresh_prediction(kind, k_rows, rng):
    # a data call turns the prediction into the residual in place, so
    # it must have a buffer of its own
    model = build_model(kind, 8, 2, 3, seed=21)
    theta = rng.uniform(-0.5, 0.5, size=(k_rows, model.n_params))
    inputs = model.rows_read(rng.uniform(0.0, 1.0, size=(k_rows, 11, 8, 3)))
    workspace = model.workspace(k_rows, 11)
    pred = model.bind(model.unpack(theta), inputs, ws=workspace)()
    assert pred.shape == (k_rows, 11, 2) and pred.flags.writeable
    assert pred is workspace["pred"]
    others = [buf for name, buf in workspace.items() if name != "pred"]
    for held in (theta, inputs, *others):
        assert not np.shares_memory(pred, held)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("k_rows", [1, 3])
def test_unpack_views_are_the_stack_in_place(kind, k_rows, rng):
    # a kernel reads theta and writes the gradient through these views, so
    # each must be one layout segment of the stack itself, not a copy
    model = build_model(kind, 8, 2, 3, seed=21)
    stack = rng.uniform(-0.5, 0.5, size=(k_rows, model.n_params))
    views, layout = model.unpack(stack), model.export_params().layout
    assert tuple((name, view[0].size) for name, view in views.items()) == layout
    for i, view in enumerate(views.values()):
        assert np.shares_memory(view, stack)
        view[...] = i  # writes show through in the stack, segment after segment
    lengths = [length for _, length in layout]
    assert np.array_equal(stack, np.tile(np.repeat(np.arange(len(lengths)), lengths), (k_rows, 1)))
    if kind == "texfilter":  # theta-only buffers: the conjugates alone, no weight copies
        assert set(model.workspace(k_rows)) == {"w1_conj", "w2_conj"}


# ---------------------------------------------------------------------------
# training sanity: each kind fits its matched sinusoid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_training_sanity_on_matched_sinusoid(kind):
    assert train_sanity_mse(kind) < 1e-3
