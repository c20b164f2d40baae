import numpy as np
import pytest

from csti import numerics
from csti.data import fit_normalizer, generate_synthetic_market, make_windows, normalize
from csti.errors import ContractViolation, NumericOverflowError


def windowed_market(stocks, length, shared_strength, seed, lookback=16, horizon=1,
                    fractions=(0.7, 0.1, 0.2), drop_sentiment=False):
    """Generate, normalize and window a synthetic market for tests."""
    market = generate_synthetic_market(stocks, length, shared_strength, seed)
    if drop_sentiment:
        market = [s.drop_sentiment() for s in market]
    train, test, normalizers = [], [], []
    for series in market:
        params = fit_normalizer(series, fractions[0])
        normed = normalize(series, params)
        train.append(make_windows(normed, lookback, horizon, "train", fractions))
        test.append(make_windows(normed, lookback, horizon, "test", fractions))
        normalizers.append(params)
    return train, test, normalizers


def sinusoid_windows(period, lookback=16, horizon=1, total=240):
    """Pure sinusoid fixture; open is the exactly lagged close."""
    from csti.data import WindowedDataset

    t = np.arange(total, dtype=float)
    close = 0.5 + 0.3 * np.sin(2.0 * np.pi * t / period)
    opens = np.empty_like(close)
    opens[0] = close[0]
    opens[1:] = close[:-1]
    feats = np.column_stack([opens, close])
    n = total - lookback - horizon + 1
    inputs = np.stack([feats[s : s + lookback] for s in range(n)])
    targets = np.stack([close[s + lookback : s + lookback + horizon] for s in range(n)])
    return WindowedDataset("SINE", "train", lookback, horizon,
                           inputs, targets, np.arange(n) + lookback)


SANITY_PERIODS = {"dlinear": 16, "paifilter": 8, "texfilter": 8, "frets": 8}


def train_sanity_mse(kind, steps=500, learning_rate=0.1):
    """Train a kind on its matched sinusoid; returns the final epoch MSE."""
    from csti.models import build_model
    from csti.training import train_local

    ds = sinusoid_windows(SANITY_PERIODS[kind])
    steps_per_epoch = -(-ds.n_windows // 64)
    epochs = steps // steps_per_epoch
    model = build_model(kind, 16, 1, 2, seed=42)
    result = train_local(model, ds, epochs=epochs, learning_rate=learning_rate,
                         momentum=0.9, batch_size=64, seed=7)
    assert result.update_steps <= steps
    return result.epoch_losses[-1]


def random_batch(rng, n, lookback, d, horizon):
    inputs = rng.uniform(0.0, 1.0, size=(n, lookback, d))
    targets = rng.uniform(0.0, 1.0, size=(n, horizon))
    return inputs, targets


def gradient(model, inputs, targets):
    """The model's analytic batch-MSE gradient, checked finite segment by segment."""
    if inputs.shape[0] == 0:
        raise ContractViolation("batch must be non-empty")
    grad = model.loss_gradient(inputs, targets)
    for seg in grad.layout:
        if not np.all(np.isfinite(grad.values[seg.offset : seg.offset + seg.length])):
            raise NumericOverflowError(f"non-finite gradient in segment {seg.name!r}")
    return grad


def finite_diff_gradient(model, inputs, targets, epsilon=1e-5):
    """Central-difference gradient oracle over every coordinate."""
    if not (1e-8 <= epsilon <= 1e-3):
        raise ContractViolation("epsilon must lie in [1e-8, 1e-3]")
    base = model.export_params()
    theta = base.values.copy()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + epsilon
        hi = model.import_params(base.replace(theta)).loss(inputs, targets)
        theta[i] = saved - epsilon
        lo = model.import_params(base.replace(theta)).loss(inputs, targets)
        theta[i] = saved
        grad[i] = (hi - lo) / (2.0 * epsilon)
    return base.replace(grad)


def gradient_check_max_error(model, inputs, targets, epsilon=1e-5):
    """Max-coordinate guarded relative error between analytic and FD gradients.

    The denominator floors at 1e-3, so near-zero coordinates are compared
    absolutely at 1e-7 scale rather than amplifying FD noise.
    """
    ga = gradient(model, inputs, targets).values
    gf = finite_diff_gradient(model, inputs, targets, epsilon).values
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), 1e-3)
    return float(np.max(np.abs(ga - gf) / denom)) if ga.size else 0.0


def filter_spectrum(s_re, s_im, k_re, k_im):
    """Real part of the inverse transform of the spectrum times a kernel."""
    return numerics.real_idft_batch(s_re * k_re - s_im * k_im, s_re * k_im + s_im * k_re)


def filter_series(model, z):
    """A paifilter model's kernel applied to (N, L) scalar series; the pre-head signal."""
    kernel = model.unpack(model.export_params().values[None])["kernel"]
    g_op = kernel[:, None] @ numerics.filter_operator_basis(model.lookback)
    return z @ g_op.reshape(model.lookback, model.lookback)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_market():
    """3 stocks, 300 rows, moderate sharing; enough for fast protocol tests."""
    return windowed_market(3, 300, 0.7, seed=11)
