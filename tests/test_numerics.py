import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csti import models, numerics
from csti.errors import (
    ContractViolation,
    MergeIncompatibilityError,
    NumericInputError,
    ShapeMismatchError,
    SymmetryViolationError,
)
from csti.numerics import (
    OptimizerState,
    ParamVector,
    Segment,
    Spectrum,
    axpy_merge,
    complex_hadamard,
    dft,
    fresh_optimizer_state,
    fsum_columns,
    idft,
    layout_from_lengths,
    load_param_vector,
    save_param_vector,
    sgd_step,
)

from conftest import random_batch


def pv(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        layout = layout_from_lengths([("all", values.size)])
    else:
        layout = layout_from_lengths(names)
    return ParamVector(values, layout)


# ---------------------------------------------------------------------------
# DFT pair
# ---------------------------------------------------------------------------

def test_dft_dc_signal():
    s = dft([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(s.re, [4, 0, 0, 0], atol=1e-12)
    assert np.allclose(s.im, 0.0, atol=1e-12)


def test_dft_unit_impulse_flat_spectrum():
    s = dft([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(s.re, 1.0, atol=1e-12)
    assert np.allclose(s.im, 0.0, atol=1e-12)


def test_dft_alternating_signal_matches_hand_value():
    # oracle: numpy fft of [0,1,0,-1] gives [0, -2j, 0, +2j]
    s = dft([0.0, 1.0, 0.0, -1.0])
    assert np.allclose(s.re, [0, 0, 0, 0], atol=1e-12)
    assert np.allclose(s.im, [0, -2, 0, 2], atol=1e-12)


def test_dft_agrees_with_numpy_fft_oracle():
    rng = np.random.default_rng(7)
    for n in (4, 8, 16, 64):
        x = rng.standard_normal(n)
        ours = dft(x)
        ref = np.fft.fft(x)
        assert np.allclose(ours.re, ref.real, atol=1e-9)
        assert np.allclose(ours.im, ref.imag, atol=1e-9)


def test_dft_rejects_non_finite():
    with pytest.raises(NumericInputError):
        dft([1.0, np.nan, 0.0])


def test_idft_roundtrip_and_dc_inverse():
    x = np.array([0.3, -1.2, 4.5, 0.0])
    assert np.allclose(idft(dft(x)), x, atol=1e-9)
    assert np.allclose(idft(Spectrum(re=[4, 0, 0, 0], im=[0, 0, 0, 0])), 1.0)


def test_idft_rejects_asymmetric_spectrum():
    with pytest.raises(SymmetryViolationError):
        idft(Spectrum(re=[0.0, 1.0, 0.0, 0.0], im=[0.0, 1.0, 0.0, 0.0]))


def test_roundtrip_and_conjugate_symmetry_many_sizes():
    rng = np.random.default_rng(13)
    for n in (4, 8, 16, 64):
        for _ in range(20):
            x = rng.standard_normal(n)
            s = dft(x)
            # conjugate symmetry of a real signal's spectrum
            for f in range(1, n):
                assert abs(s.re[n - f] - s.re[f]) < 1e-9
                assert abs(s.im[n - f] + s.im[f]) < 1e-9
            assert np.max(np.abs(idft(s) - x)) < 1e-9


def test_parseval_identity():
    rng = np.random.default_rng(29)
    for n in (4, 8, 16, 64):
        x = rng.standard_normal(n)
        s = dft(x)
        time_energy = np.sum(x**2)
        freq_energy = np.sum(s.re**2 + s.im**2) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * max(1.0, abs(time_energy))


def test_dft_linearity():
    rng = np.random.default_rng(31)
    x, y = rng.standard_normal(16), rng.standard_normal(16)
    a, b = 2.5, -0.75
    s = dft(a * x + b * y)
    sx, sy = dft(x), dft(y)
    assert np.allclose(s.re, a * sx.re + b * sy.re, atol=1e-9)
    assert np.allclose(s.im, a * sx.im + b * sy.im, atol=1e-9)


def test_complex_hadamard_identity_and_j_squared():
    rng = np.random.default_rng(37)
    b = Spectrum(re=rng.standard_normal(6), im=rng.standard_normal(6))
    ones = Spectrum(re=np.ones(6), im=np.zeros(6))
    out = complex_hadamard(ones, b)
    assert np.allclose(out.re, b.re) and np.allclose(out.im, b.im)

    j = Spectrum(re=[0.0], im=[1.0])
    jj = complex_hadamard(j, j)
    assert np.allclose(jj.re, [-1.0]) and np.allclose(jj.im, [0.0])


def test_identity_filter_leaves_signal_unchanged():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(8)
    kernel = Spectrum(re=np.ones(8), im=np.zeros(8))
    assert np.allclose(idft(complex_hadamard(dft(x), kernel)), x, atol=1e-9)


def test_complex_hadamard_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        complex_hadamard(Spectrum(re=[1, 2], im=[0, 0]), Spectrum(re=[1], im=[0]))


# ---------------------------------------------------------------------------
# parameter vectors and merging
# ---------------------------------------------------------------------------

def test_param_vector_layout_validation():
    with pytest.raises(ContractViolation):
        ParamVector([1.0, 2.0], [Segment("a", 0, 1)])
    with pytest.raises(ContractViolation):
        ParamVector([1.0, 2.0], [Segment("a", 1, 1), Segment("b", 0, 1)])
    with pytest.raises(NumericInputError):
        pv([np.inf, 1.0])


def test_axpy_merge_examples():
    single = axpy_merge([pv([1.0, 2.0])], [1.0])
    assert np.allclose(single.values, [1.0, 2.0])

    merged = axpy_merge([pv([1, 2, 3]), pv([3, 4, 5])], [1.0, 1.0])
    assert np.array_equal(merged.values, [2.0, 3.0, 4.0])

    theta = pv([0.5, -1.5, 2.0])
    consensus = axpy_merge([theta] * 4, [1.0] * 4)
    assert np.array_equal(consensus.values, theta.values)


def test_axpy_merge_permutation_equivariance_equal_weights():
    rng = np.random.default_rng(43)
    vecs = [pv(rng.standard_normal(5)) for _ in range(4)]
    a = axpy_merge(vecs, [1.0] * 4)
    b = axpy_merge(vecs[::-1], [1.0] * 4)
    assert np.allclose(a.values, b.values, atol=1e-15)


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


@settings(max_examples=300, deadline=None)
@given(merge_columns())
def test_fsum_columns_equals_fsum_bit_for_bit(rows):
    expected = [math.fsum(col) for col in rows.T]
    assert np.array_equal(_bits(fsum_columns(rows)), _bits(expected))


def test_fsum_columns_edge_columns():
    columns = [
        # s + c rounds (tie to even) up to 1.0, but the exact sum lies just
        # below 1 - 2**-54, half the gap under the power of two
        [1.0, -(2.0**-54), -(2.0**-110)],
        [-0.0, -0.0, -0.0],
        [1.0, -1.0, 0.0],
        [3.0, 1e-300, -3.0],
    ]
    rows = np.array(columns).T
    assert np.array_equal(_bits(fsum_columns(rows)), _bits([math.fsum(c) for c in columns]))


@settings(max_examples=100, deadline=None)
@given(merge_columns(), st.randoms(use_true_random=False))
def test_axpy_merge_is_fsum_mean_and_order_free(rows, shuffler):
    k = rows.shape[0]
    vecs = [pv(row) for row in rows]
    merged = axpy_merge(vecs, [1.0] * k).values
    if np.all(_bits(rows) == _bits(rows[0])):  # consensus: the shared vector itself
        expected = rows[0]
    else:
        expected = [math.fsum(col) / k for col in rows.T]
    assert np.array_equal(_bits(merged), _bits(expected))
    shuffler.shuffle(vecs)
    assert np.array_equal(_bits(axpy_merge(vecs, [1.0] * k).values), _bits(merged))


def test_axpy_merge_signed_zeros_are_order_free():
    # +0.0 and -0.0 compare equal but are not a consensus; fsum/K is +0.0
    for rows in ([0.0], [-0.0]), ([-0.0], [0.0]):
        merged = axpy_merge([pv(row) for row in rows], [1.0, 1.0]).values
        assert np.array_equal(_bits(merged), _bits([0.0]))
    both_negative = axpy_merge([pv([-0.0]), pv([-0.0])], [1.0, 1.0]).values
    assert np.array_equal(_bits(both_negative), _bits([-0.0]))


def test_axpy_merge_weighted_is_fsum_of_products():
    rng = np.random.default_rng(53)
    rows = rng.standard_normal((7, 40))
    weights = rng.uniform(0.0, 3.0, size=7)
    merged = axpy_merge([pv(row) for row in rows], weights).values
    expected = [math.fsum(w * x for w, x in zip(weights, col)) / 7 for col in rows.T]
    assert np.array_equal(_bits(merged), _bits(expected))


def test_axpy_merge_layout_mismatch_names_segment():
    a = pv(np.zeros(4), [("head", 3), ("mix", 1)])
    b = pv(np.zeros(4), [("head", 2), ("mix", 2)])
    with pytest.raises(MergeIncompatibilityError, match="head"):
        axpy_merge([a, b], [1.0, 1.0])


def test_param_vector_serialization_roundtrip(tmp_path):
    vec = pv(np.random.default_rng(47).standard_normal(7),
             [("kernel", 4), ("bias", 3)])
    save_param_vector(vec, tmp_path / "theta.pvec")
    back = load_param_vector(tmp_path / "theta.pvec")
    assert back.layout == vec.layout
    assert np.array_equal(back.values, vec.values)


# ---------------------------------------------------------------------------
# SGD with momentum
# ---------------------------------------------------------------------------

def test_sgd_step_arithmetic_example():
    params = pv([1.0])
    state = fresh_optimizer_state(params, learning_rate=0.01, momentum=0.9)
    new_params, new_state = sgd_step(params, pv([1.0]), state)
    assert np.allclose(new_state.velocity.values, [1.0])
    assert np.allclose(new_params.values, [0.99])


def test_sgd_step_zero_momentum_is_plain_descent():
    params = pv([2.0, -3.0])
    grad = pv([0.5, 0.5])
    state = fresh_optimizer_state(params, 0.1, 0.0)
    new_params, _ = sgd_step(params, grad, state)
    assert np.allclose(new_params.values, params.values - 0.1 * grad.values)


def test_sgd_step_fixed_point():
    params = pv([1.0, 2.0])
    state = fresh_optimizer_state(params, 0.01, 0.9)
    new_params, _ = sgd_step(params, pv([0.0, 0.0]), state)
    assert np.array_equal(new_params.values, params.values)


def test_sgd_momentum_converges_on_quadratic():
    # minimize (theta - 3)^2 with eta=0.01, mu=0.9
    params = pv([10.0])
    state = fresh_optimizer_state(params, 0.01, 0.9)
    for _ in range(10_000):
        grad = pv(2.0 * (params.values - 3.0))
        params, state = sgd_step(params, grad, state)
        if abs(params.values[0] - 3.0) < 1e-6:
            break
    assert abs(params.values[0] - 3.0) < 1e-6


def test_optimizer_state_validation():
    params = pv([1.0])
    with pytest.raises(ContractViolation):
        OptimizerState(velocity=params, learning_rate=0.0, momentum=0.5)
    with pytest.raises(ContractViolation):
        OptimizerState(velocity=params, learning_rate=0.1, momentum=1.0)


# ---------------------------------------------------------------------------
# gradient engine vs finite differences
# ---------------------------------------------------------------------------

class _ZeroParamModel:
    """Degenerate interface stub: no learnable values at all."""

    def __init__(self):
        self._layout = ()

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
    assert len(numerics.gradient(stub, inputs, targets)) == 0
    assert len(numerics.finite_diff_gradient(stub, inputs, targets)) == 0


def test_perfect_fit_batch_has_zero_gradient(rng):
    model = models.build_model("dlinear", 8, 1, 2, seed=5)
    inputs, _ = random_batch(rng, 6, 8, 2, 1)
    targets = model.predict_batch(inputs)
    grad = numerics.gradient(model, inputs, targets)
    assert np.max(np.abs(grad.values)) < 1e-12


def test_finite_diff_on_scalar_quadratic():
    class Quad:
        def __init__(self, theta):
            self.theta = theta

        def export_params(self):
            return ParamVector([self.theta], layout_from_lengths([("t", 1)]))

        def import_params(self, pvec):
            return Quad(pvec.values[0])

        def loss(self, inputs, targets):
            return self.theta**2

    grad = numerics.finite_diff_gradient(Quad(3.0), None, None, epsilon=1e-5)
    assert abs(grad.values[0] - 6.0) < 1e-8


def test_finite_diff_constant_loss_is_zero():
    class Const:
        def export_params(self):
            return ParamVector([1.0, 2.0], layout_from_lengths([("t", 2)]))

        def import_params(self, pvec):
            return self

        def loss(self, inputs, targets):
            return 1.25

    grad = numerics.finite_diff_gradient(Const(), None, None)
    assert np.array_equal(grad.values, [0.0, 0.0])


def test_finite_diff_epsilon_range():
    with pytest.raises(ContractViolation):
        numerics.finite_diff_gradient(_ZeroParamModel(), None, None, epsilon=1e-2)


@pytest.mark.parametrize("kind", models.MODEL_KINDS)
def test_gradient_matches_finite_differences(kind, rng):
    model = models.build_model(kind, 8, 1, 2, seed=17)
    for draw in range(3):
        draw_rng = np.random.default_rng(1000 + draw)
        theta = draw_rng.uniform(-0.5, 0.5, size=model.n_params)
        candidate = model.import_params(model.export_params().replace(theta))
        inputs, targets = random_batch(draw_rng, 6, 8, 2, 1)
        err = numerics.gradient_check_max_error(candidate, inputs, targets)
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
    err = numerics.gradient_check_max_error(candidate, inputs, targets)
    assert err < 1e-4, f"L={lookback} H={horizon} {hyper}: relative error {err:.3e}"


@pytest.mark.parametrize("lookback,horizon", [(5, 3), (16, 2)])
def test_paifilter_gradient_matches_finite_differences_at_other_shapes(lookback, horizon):
    model = models.build_model("paifilter", lookback, horizon, 2, seed=17)
    draw_rng = np.random.default_rng(2000 + lookback)
    theta = draw_rng.uniform(-0.5, 0.5, size=model.n_params)
    candidate = model.import_params(model.export_params().replace(theta))
    inputs, targets = random_batch(draw_rng, 6, lookback, 2, horizon)
    err = numerics.gradient_check_max_error(candidate, inputs, targets)
    assert err < 1e-4, f"L={lookback} H={horizon}: relative error {err:.3e}"


@pytest.mark.parametrize("lookback,horizon,hidden", [(5, 3, 3), (16, 2, 7)])
def test_texfilter_gradient_matches_finite_differences_at_other_shapes(lookback, horizon, hidden):
    model = models.build_model("texfilter", lookback, horizon, 2, {"hidden": hidden}, seed=17)
    draw_rng = np.random.default_rng(3000 + lookback)
    theta = draw_rng.uniform(-0.5, 0.5, size=model.n_params)
    candidate = model.import_params(model.export_params().replace(theta))
    inputs, targets = random_batch(draw_rng, 6, lookback, 2, horizon)
    err = numerics.gradient_check_max_error(candidate, inputs, targets)
    assert err < 1e-4, f"L={lookback} H={horizon} hidden={hidden}: relative error {err:.3e}"


@pytest.mark.parametrize("n", [4, 5, 8, 16])
def test_interleaved_dft_operators_match_numpy_fft(n, rng):
    d_op, r_op = numerics.interleaved_dft_operators(n)
    assert d_op.shape == (n, 2 * n) and r_op.shape == (2 * n, n)
    assert not d_op.flags.writeable and not r_op.flags.writeable
    z = rng.standard_normal((7, n))
    spectrum = (z @ d_op).view(np.complex128)
    expected = np.fft.fft(z)
    assert np.max(np.abs(spectrum - expected)) <= 1e-12 * np.max(np.abs(expected))
    y = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
    inverse = y.view(np.float64) @ r_op
    expected = np.fft.ifft(y).real
    assert np.max(np.abs(inverse - expected)) <= 1e-12 * np.max(np.abs(expected))
