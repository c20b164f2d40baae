import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csti import models, numerics
from csti.errors import ContractViolation, NumericInputError
from csti.numerics import (
    ParamVector,
    axpy_merge,
    dft_batch,
    dft_batch_adjoint,
    load_container,
    real_idft_batch,
    real_idft_batch_adjoint,
    save_container,
    sgd_step,
)

from conftest import (circulant_operator, finite_diff_gradient, gradient, gradient_check_max_error,
                      random_batch)


def pv(values, names=None):
    values = np.asarray(values, dtype=float)
    return ParamVector(values, [("all", values.size)] if names is None else names)


# ---------------------------------------------------------------------------
# DFT operators: the split helpers against numpy's FFT and their adjoints
# ---------------------------------------------------------------------------

def test_dft_dc_signal():
    re, im = dft_batch(np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.allclose(re, [4, 0, 0, 0], atol=1e-12)
    assert np.allclose(im, 0.0, atol=1e-12)


def test_dft_unit_impulse_flat_spectrum():
    re, im = dft_batch(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(re, 1.0, atol=1e-12)
    assert np.allclose(im, 0.0, atol=1e-12)


def test_dft_alternating_signal_matches_hand_value():
    # oracle: numpy fft of [0,1,0,-1] gives [0, -2j, 0, +2j]
    re, im = dft_batch(np.array([0.0, 1.0, 0.0, -1.0]))
    assert np.allclose(re, [0, 0, 0, 0], atol=1e-12)
    assert np.allclose(im, [0, -2, 0, 2], atol=1e-12)


def test_dft_agrees_with_numpy_fft_oracle():
    rng = np.random.default_rng(7)
    for n in (4, 8, 16, 64):
        x = rng.standard_normal((3, n))
        re, im = dft_batch(x)
        ref = np.fft.fft(x)
        assert np.allclose(re, ref.real, atol=1e-9)
        assert np.allclose(im, ref.imag, atol=1e-9)


def test_idft_roundtrip_and_dc_inverse():
    x = np.array([0.3, -1.2, 4.5, 0.0])
    assert np.allclose(real_idft_batch(*dft_batch(x)), x, atol=1e-9)
    assert np.allclose(real_idft_batch(np.array([4.0, 0, 0, 0]), np.zeros(4)), 1.0)


def test_roundtrip_and_conjugate_symmetry_many_sizes():
    rng = np.random.default_rng(13)
    for n in (4, 8, 16, 64):
        x = rng.standard_normal((20, n))
        re, im = dft_batch(x)
        # conjugate symmetry of a real signal's spectrum
        assert np.max(np.abs(re[:, :0:-1] - re[:, 1:])) < 1e-9
        assert np.max(np.abs(im[:, :0:-1] + im[:, 1:])) < 1e-9
        # the inverse's imaginary part, the real part of the inverse of -i * spectrum, is 0
        assert np.max(np.abs(real_idft_batch(im, -re))) < 1e-9
        assert np.max(np.abs(real_idft_batch(re, im) - x)) < 1e-9


def test_parseval_identity():
    rng = np.random.default_rng(29)
    for n in (4, 8, 16, 64):
        x = rng.standard_normal(n)
        re, im = dft_batch(x)
        time_energy = np.sum(x**2)
        freq_energy = np.sum(re**2 + im**2) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * max(1.0, abs(time_energy))


def test_dft_linearity():
    rng = np.random.default_rng(31)
    x, y = rng.standard_normal(16), rng.standard_normal(16)
    a, b = 2.5, -0.75
    s_re, s_im = dft_batch(a * x + b * y)
    (x_re, x_im), (y_re, y_im) = dft_batch(x), dft_batch(y)
    assert np.allclose(s_re, a * x_re + b * y_re, atol=1e-9)
    assert np.allclose(s_im, a * x_im + b * y_im, atol=1e-9)
    f_re, f_im = rng.standard_normal((2, 16))
    g_re, g_im = rng.standard_normal((2, 16))
    assert np.allclose(real_idft_batch(a * f_re + b * g_re, a * f_im + b * g_im),
                       a * real_idft_batch(f_re, f_im) + b * real_idft_batch(g_re, g_im),
                       atol=1e-9)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_split_adjoints_are_the_transposes_of_the_forward_maps(n, rng):
    # <A x, y> = <x, A^T y> for the forward transform and the real inverse
    x, y_re, y_im = rng.standard_normal((3, 5, n))
    re, im = dft_batch(x)
    forward = np.sum(re * y_re) + np.sum(im * y_im)
    assert forward == pytest.approx(np.sum(x * dft_batch_adjoint(y_re, y_im)), rel=1e-12)
    f_re, f_im, ds = rng.standard_normal((3, 5, n))
    a_re, a_im = real_idft_batch_adjoint(ds)
    inverse = np.sum(real_idft_batch(f_re, f_im) * ds)
    assert inverse == pytest.approx(np.sum(f_re * a_re) + np.sum(f_im * a_im), rel=1e-12)


def test_identity_filter_leaves_signal_unchanged():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 8))
    kernel = np.concatenate([np.ones(8), np.zeros(8)])  # [k_re | k_im] of the unit kernel
    assert np.allclose(x @ circulant_operator(kernel), x, atol=1e-9)


# ---------------------------------------------------------------------------
# parameter vectors and merging
# ---------------------------------------------------------------------------

def test_param_vector_layout_validation():
    assert ParamVector([1.0, 2.0], [["a", 0], ["b", 2]]).layout == (("a", 0), ("b", 2))
    for layout in ([("a", 1)],  # the lengths sum to 1, not the 2 values
                   [("a", 1), ("b", 2)],
                   [("a", 1, 1)], ["ab"], [("a", 1), 1],  # entries that are not pairs
                   [(1, 2)], [(None, 2)],  # names that are not strings
                   [("a", True), ("b", 1)], [("a", 1.0), ("b", 1)],
                   [("a", -1), ("b", 3)],  # a negative length, although the sum fits
                   {"a": 2}, "a2", 2, None):  # layouts that are not lists
        with pytest.raises(ContractViolation):
            ParamVector([1.0, 2.0], layout)
    with pytest.raises(NumericInputError):
        pv([np.inf, 1.0])


def test_axpy_merge_examples():
    single = axpy_merge(np.array([[1.0, 2.0]]), [1.0])
    assert np.allclose(single, [1.0, 2.0])

    merged = axpy_merge(np.array([[1.0, 2, 3], [3, 4, 5]]), [1.0, 1.0])
    assert np.array_equal(merged, [2.0, 3.0, 4.0])

    theta = np.array([0.5, -1.5, 2.0])
    consensus = axpy_merge(np.tile(theta, (4, 1)), [1.0] * 4)
    assert np.array_equal(consensus, theta)


def test_axpy_merge_permutation_equivariance_equal_weights():
    rng = np.random.default_rng(43)
    rows = rng.standard_normal((4, 5))
    a = axpy_merge(rows, [1.0] * 4)
    b = axpy_merge(rows[::-1], [1.0] * 4)
    assert np.allclose(a, b, atol=1e-15)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@st.composite
def merge_columns(draw):
    """(K, n) float64 rows: wide exponents, near-cancelling, repeated or near-equal."""
    k = draw(st.integers(2, 40))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["wide", "cancel", "repeat", "near"]))
    if kind == "repeat":
        pool = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 2.0**-52, 1e16, -1e16, 0.1])
        return draw(hnp.arrays(np.float64, (k, n), elements=pool))
    finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    if kind == "wide":
        return draw(hnp.arrays(np.float64, (k, n), elements=finite))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    rows = draw(hnp.arrays(np.float64, (k, n), elements=unit))
    if kind == "cancel":
        # the last row cancels the others up to a remainder near 1e-12
        tiny = draw(hnp.arrays(np.float64, n, elements=unit))
        rows[-1] = [-math.fsum(col) for col in rows[:-1].T] + 1e-12 * tiny
    else:
        base = draw(hnp.arrays(np.float64, n, elements=unit))
        rows = base + 1e-15 * rows
    return rows


def _row_order_mean(rows, weights):
    """The merge's reference: a sequential loop over the rows, then a divide by fsum(w)."""
    acc = weights[0] * rows[0]
    for w, row in zip(weights[1:], rows[1:]):
        acc = acc + w * row
    return acc / math.fsum(weights)


def _layouts(rows):
    """The stack C-ordered, Fortran-ordered, as a column-strided view and as a row-reversed view."""
    spaced = np.zeros((rows.shape[0], 2 * rows.shape[1]))
    spaced[:, ::2] = rows
    return (np.ascontiguousarray(rows), np.asfortranarray(rows), spaced[:, ::2],
            np.ascontiguousarray(rows[::-1])[::-1])


@settings(max_examples=100, deadline=None)
@given(merge_columns(), st.none() | st.lists(st.floats(0.25, 4.0), min_size=40, max_size=40))
def test_axpy_merge_is_the_row_order_mean_on_every_layout(rows, drawn):
    # K up to 40 and single columns included: numpy reduces a lone column,
    # or a Fortran-ordered stack, pairwise from K = 8 on, not in row order
    k = rows.shape[0]
    weights = [1.0] * k if drawn is None else drawn[:k]
    if np.all(_bits(rows) == _bits(rows[0])):  # consensus: the shared vector itself
        expected = rows[0]
    else:
        expected = _row_order_mean(rows, weights)
    for stack in _layouts(rows):
        assert np.array_equal(_bits(axpy_merge(stack, weights)), _bits(expected))


def test_axpy_merge_signed_zeros_are_order_free():
    # +0.0 and -0.0 compare equal but are not a consensus; +0.0 + -0.0 is +0.0 in either order
    for rows in ([0.0], [-0.0]), ([-0.0], [0.0]):
        merged = axpy_merge(np.array(rows), [1.0, 1.0])
        assert np.array_equal(_bits(merged), _bits([0.0]))
    both_negative = axpy_merge(np.array([[-0.0], [-0.0]]), [1.0, 1.0])
    assert np.array_equal(_bits(both_negative), _bits([-0.0]))


@pytest.mark.parametrize("shape", [(24, 40), (24, 1), (200, 3)])
def test_axpy_merge_weighted_is_the_row_order_sum_of_products(shape):
    rng = np.random.default_rng(53)
    rows = rng.standard_normal(shape)
    weights = rng.uniform(0.0, 3.0, size=shape[0])
    expected = _row_order_mean(rows, weights)
    for stack in _layouts(rows):
        assert np.array_equal(_bits(axpy_merge(stack, weights)), _bits(expected))
    assert np.allclose(expected, np.average(rows, axis=0, weights=weights), rtol=0, atol=1e-15)


def test_axpy_merge_divides_by_the_weight_sum():
    # it used to divide by K, so weights of 2 doubled the merged model
    rows = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert np.array_equal(axpy_merge(rows, [2.0, 2.0]), [2.0, 2.0])
    assert np.array_equal(axpy_merge(rows, [1.0, 3.0]), [2.5, 2.5])
    rows = np.random.default_rng(59).standard_normal((5, 30))
    uniform = axpy_merge(rows, [1.0] * 5)
    # fsum(w) is exactly K for weights of 1.0, so uniform merges divide the row sum by K
    row_sum = rows[0] + rows[1] + rows[2] + rows[3] + rows[4]
    assert np.array_equal(_bits(uniform), _bits(row_sum / 5))
    # 2 * x and dividing by 2K are exact, so scaling every weight by 2 keeps every bit
    assert np.array_equal(_bits(axpy_merge(rows, [2.0] * 5)), _bits(uniform))


def test_axpy_merge_consensus_is_the_row_itself_whatever_the_weights():
    theta = np.array([0.1, -0.0, 3.0 + 2.0**-51, 1e-300])
    merged = axpy_merge(np.tile(theta, (3, 1)), [0.3, 2.0, 1.7])
    assert np.array_equal(_bits(merged), _bits(theta))


@pytest.mark.parametrize("weights,message", [
    ([1e308, 1e308, 1.0], "weights' sum overflows the float range"),
    ([1.0, -1.0, 0.0], "positive sum"),
    ([0.0, 0.0, 0.0], "positive sum"),
])
def test_axpy_merge_rejects_a_weight_sum_that_is_not_a_positive_float(weights, message):
    with pytest.raises(NumericInputError, match=message):
        axpy_merge(np.arange(6.0).reshape(3, 2), weights)


@pytest.mark.parametrize("rows", [np.ones((1, 3)), np.ones((3, 4)), np.arange(12.0).reshape(3, 4)])
def test_axpy_merge_reads_the_stack_and_returns_a_fresh_row(rows):
    # the trainer merges its live theta stack, so the merge must not write
    # it or hand back a view of it (single row, consensus and sum paths)
    before = rows.tobytes()
    merged = axpy_merge(rows, [1.0] * len(rows))
    assert rows.tobytes() == before
    assert merged.shape == (rows.shape[1],) and not np.shares_memory(merged, rows)


@pytest.mark.parametrize("rows,weights", [
    (np.ones(3), [1.0]),  # not a (K, P) stack
    (np.ones((0, 3)), []),  # no rows
    (np.ones((2, 3)), [1.0]),  # one weight short
    (np.ones((2, 3)), [1.0, 1.0, 1.0]),  # one weight over
])
def test_axpy_merge_rejects_a_stack_that_is_not_k_rows_by_k_weights(rows, weights):
    with pytest.raises(ContractViolation, match="K weights"):
        axpy_merge(rows, weights)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_axpy_merge_rejects_non_finite_rows_and_weights(bad):
    rows = np.ones((3, 2))
    with pytest.raises(NumericInputError, match="weights"):
        axpy_merge(rows, [1.0, bad, 1.0])
    rows[1, 1] = bad
    with pytest.raises(NumericInputError, match="rows"):
        axpy_merge(rows, [1.0] * 3)


@pytest.mark.parametrize("rows,weights", [
    ([[2.0], [-2.0]], [1e308, 1e308]),  # the weighted rows overflow, to inf and -inf
    ([[2.0]], [1e308]),  # one weighted row overflows
    ([[1e308], [1.5e308]], [1.0, 1.0]),  # the column sum overflows, its mean would not
])
def test_axpy_merge_overflow_is_a_numeric_input_error(rows, weights):
    # these used to escape as a RuntimeWarning, then a raw ValueError or OverflowError
    with pytest.raises(NumericInputError, match="overflows the float range"):
        axpy_merge(np.array(rows), weights)


def test_axpy_merge_names_a_partial_sum_that_overflows():
    # the whole column sums to 1e308, but the row-order sum passes through 2e308
    with pytest.raises(NumericInputError, match="a merged column sum overflows the float range"):
        axpy_merge(np.array([[1e308], [1e308], [-1e308]]), [1.0] * 3)


_HUGE = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    hnp.arrays(np.float64, st.tuples(st.just(k), st.integers(1, 4)), elements=_HUGE),
    st.lists(_HUGE, min_size=k, max_size=k))))
def test_axpy_merge_of_finite_rows_is_finite_or_a_numeric_input_error(case):
    rows, weights = case
    try:
        merged = axpy_merge(rows, weights)
    except NumericInputError:
        return
    assert merged.shape == (rows.shape[1],) and np.all(np.isfinite(merged))


def test_param_vector_serialization_roundtrip(tmp_path):
    vec = pv(np.random.default_rng(47).standard_normal(7),
             [("kernel", 4), ("bias", 3)])
    save_container(tmp_path / "round.bin", "round", vec, round=3)
    header, back = load_container(tmp_path / "round.bin", "round", ("round",))
    assert header["round"] == 3
    assert back.layout == vec.layout
    assert np.array_equal(back.values, vec.values)


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------

def _step(theta, grad, learning_rate, momentum, velocity=None):
    """(theta, velocity) after one ``sgd_step`` on copies, from zero velocity by default."""
    theta = np.array(theta, dtype=float)
    velocity = np.zeros_like(theta) if velocity is None else np.array(velocity, dtype=float)
    sgd_step(theta, velocity, np.asarray(grad, dtype=float), learning_rate, momentum)
    return theta, velocity


def test_sgd_step_arithmetic_example():
    theta, velocity = _step([1.0], [1.0], learning_rate=0.01, momentum=0.9)
    assert np.allclose(velocity, [1.0])
    assert np.allclose(theta, [0.99])


def test_sgd_step_zero_momentum_is_plain_descent():
    theta, grad = np.array([2.0, -3.0]), np.array([0.5, 0.5])
    stepped, _ = _step(theta, grad, 0.1, 0.0, velocity=[7.0, -7.0])  # mu = 0 forgets v
    assert np.allclose(stepped, theta - 0.1 * grad)


def test_sgd_step_fixed_point():
    theta, velocity = _step([1.0, 2.0], [0.0, 0.0], 0.01, 0.9)
    assert np.array_equal(theta, [1.0, 2.0]) and np.array_equal(velocity, [0.0, 0.0])


def test_sgd_momentum_converges_on_quadratic():
    # minimize (theta - 3)^2 with eta=0.01, mu=0.9
    theta, velocity = np.array([10.0]), np.zeros(1)
    for _ in range(10_000):
        sgd_step(theta, velocity, 2.0 * (theta - 3.0), 0.01, 0.9)
        if abs(theta[0] - 3.0) < 1e-6:
            break
    assert abs(theta[0] - 3.0) < 1e-6


@settings(max_examples=60, deadline=None)
@given(case=st.integers(1, 5).flatmap(lambda k: st.tuples(*(
    hnp.arrays(np.float64, (k, 6), elements=st.floats(-1e3, 1e3)) for _ in range(3)))),
       learning_rate=st.floats(1e-6, 1.0), momentum=st.floats(0.0, 0.99),
       with_scratch=st.booleans())
def test_a_stack_step_equals_one_step_per_row_bit_for_bit(case, learning_rate, momentum,
                                                          with_scratch):
    # the trainer steps its whole (K, P) theta stack at once; each row must
    # end as the one-row step leaves it, or width and stock order would move bits
    theta, velocity, grad = (a.copy() for a in case)
    scratch = np.empty_like(theta) if with_scratch else None
    sgd_step(theta, velocity, grad, learning_rate, momentum, scratch)
    for k in range(len(theta)):
        row_theta, row_velocity = case[0][k].copy(), case[1][k].copy()
        row_scratch = np.empty_like(row_theta) if with_scratch else None
        sgd_step(row_theta, row_velocity, case[2][k], learning_rate, momentum, row_scratch)
        assert theta[k].tobytes() == row_theta.tobytes()
        assert velocity[k].tobytes() == row_velocity.tobytes()


# ---------------------------------------------------------------------------
# gradient engine vs finite differences
# ---------------------------------------------------------------------------

class _ZeroParamModel:
    """Degenerate interface stub: no learnable values at all."""

    def __init__(self):
        self._layout = ()

    def unpack(self, stack):
        return {}

    def export_params(self):
        return ParamVector([], ())

    def import_params(self, pvec):
        return self

    def loss(self, inputs, targets):
        return float(np.mean((np.asarray(inputs)[:, 0, 0] - targets[:, 0]) ** 2))

    def loss_gradient(self, inputs, targets):
        return ParamVector([], ())


def test_zero_parameter_model_has_empty_gradient():
    stub = _ZeroParamModel()
    inputs = np.zeros((2, 4, 2))
    targets = np.zeros((2, 1))
    assert len(gradient(stub, inputs, targets)) == 0
    assert len(finite_diff_gradient(stub, inputs, targets)) == 0


def test_perfect_fit_batch_has_zero_gradient(rng):
    model = models.build_model("dlinear", 8, 1, 2, seed=5)
    inputs, _ = random_batch(rng, 6, 8, 2, 1)
    targets = model.predict_batch(inputs)
    grad = gradient(model, inputs, targets)
    assert np.max(np.abs(grad.values)) < 1e-12


def test_finite_diff_on_scalar_quadratic():
    class Quad:
        def __init__(self, theta):
            self.theta = theta

        def export_params(self):
            return ParamVector([self.theta], [("t", 1)])

        def import_params(self, pvec):
            return Quad(pvec.values[0])

        def loss(self, inputs, targets):
            return self.theta**2

    grad = finite_diff_gradient(Quad(3.0), None, None, epsilon=1e-5)
    assert abs(grad.values[0] - 6.0) < 1e-8


def test_finite_diff_constant_loss_is_zero():
    class Const:
        def export_params(self):
            return ParamVector([1.0, 2.0], [("t", 2)])

        def import_params(self, pvec):
            return self

        def loss(self, inputs, targets):
            return 1.25

    grad = finite_diff_gradient(Const(), None, None)
    assert np.array_equal(grad.values, [0.0, 0.0])


def test_finite_diff_epsilon_range():
    with pytest.raises(ContractViolation):
        finite_diff_gradient(_ZeroParamModel(), None, None, epsilon=1e-2)


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_gradient_matches_finite_differences(kind, rng):
    model = models.build_model(kind, 8, 1, 2, seed=17)
    for draw in range(3):
        draw_rng = np.random.default_rng(1000 + draw)
        theta = draw_rng.uniform(-0.5, 0.5, size=model.n_params)
        candidate = model.import_params(model.export_params().replace(theta))
        inputs, targets = random_batch(draw_rng, 6, 8, 2, 1)
        err = gradient_check_max_error(candidate, inputs, targets)
        assert err < 1e-4, f"{kind} draw {draw}: relative error {err:.3e}"


@pytest.mark.parametrize("lookback,horizon,n_features,hyper", [
    (5, 3, 2, {"use_anchor": False}),
    (16, 2, 3, {"harmonics": 2}),
])
def test_dlinear_gradient_matches_finite_differences_at_other_shapes(
        lookback, horizon, n_features, hyper):
    model = models.build_model("dlinear", lookback, horizon, n_features, hyper, seed=17)
    draw_rng = np.random.default_rng(4000 + lookback)
    theta = draw_rng.uniform(-0.5, 0.5, size=model.n_params)
    candidate = model.import_params(model.export_params().replace(theta))
    inputs, targets = random_batch(draw_rng, 6, lookback, n_features, horizon)
    err = gradient_check_max_error(candidate, inputs, targets)
    assert err < 1e-4, f"L={lookback} H={horizon} {hyper}: relative error {err:.3e}"


@pytest.mark.parametrize("lookback,horizon", [(5, 3), (16, 2)])
def test_paifilter_gradient_matches_finite_differences_at_other_shapes(lookback, horizon):
    model = models.build_model("paifilter", lookback, horizon, 2, seed=17)
    draw_rng = np.random.default_rng(2000 + lookback)
    theta = draw_rng.uniform(-0.5, 0.5, size=model.n_params)
    candidate = model.import_params(model.export_params().replace(theta))
    inputs, targets = random_batch(draw_rng, 6, lookback, 2, horizon)
    err = gradient_check_max_error(candidate, inputs, targets)
    assert err < 1e-4, f"L={lookback} H={horizon}: relative error {err:.3e}"


@pytest.mark.parametrize("lookback,horizon,hidden", [(5, 3, 3), (16, 2, 7)])
def test_texfilter_gradient_matches_finite_differences_at_other_shapes(lookback, horizon, hidden):
    model = models.build_model("texfilter", lookback, horizon, 2, {"hidden": hidden}, seed=17)
    draw_rng = np.random.default_rng(3000 + lookback)
    theta = draw_rng.uniform(-0.5, 0.5, size=model.n_params)
    candidate = model.import_params(model.export_params().replace(theta))
    inputs, targets = random_batch(draw_rng, 6, lookback, 2, horizon)
    err = gradient_check_max_error(candidate, inputs, targets)
    assert err < 1e-4, f"L={lookback} H={horizon} hidden={hidden}: relative error {err:.3e}"


@pytest.mark.parametrize("n", [4, 5, 8, 16])
def test_interleaved_dft_operators_match_numpy_fft(n, rng):
    """The interleaved pair, then the planar pair (F, B) over [re | im] rows."""
    d_op, r_op = numerics.interleaved_dft_operators(n)
    f_op, b_op = numerics.planar_dft_operators(n)
    for forward, inverse in ((d_op, r_op), (f_op, b_op)):
        assert forward.shape == (n, 2 * n) and inverse.shape == (2 * n, n)
        assert not forward.flags.writeable and not inverse.flags.writeable
        assert forward.flags.c_contiguous and inverse.flags.c_contiguous
    # the interleaved pair holds the planar pair's bits, its halves' columns (rows) interleaved
    for half in (0, 1):
        assert np.array_equal(d_op[:, half::2], f_op[:, half * n:(half + 1) * n])
        assert np.array_equal(r_op[half::2], b_op[half * n:(half + 1) * n])
    z = rng.standard_normal((7, n))
    y = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
    planar = z @ f_op
    pairs = [((z @ d_op).view(np.complex128), np.fft.fft(z)),
             (planar[:, :n] + 1j * planar[:, n:], np.fft.fft(z)),
             (y.view(np.float64) @ r_op, np.fft.ifft(y).real),
             (np.concatenate([y.real, y.imag], axis=1) @ b_op, np.fft.ifft(y).real)]
    for got, expected in pairs:
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
