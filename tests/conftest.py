import csv
import datetime
from functools import lru_cache

import numpy as np
import pytest

from csti import models, numerics
from csti.data import fit_normalizer, generate_synthetic_market, make_windows, normalize
from csti.errors import ContractViolation


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


def write_series_csv(series, path):
    """Write a series as a CSV the loader accepts: date, open, close (, sentiment).

    Row k is dated 2015-01-02 + k days.
    """
    headers = ["date", "open", "close"] + (["sentiment"] if series.has_sentiment else [])
    day0 = datetime.date(2015, 1, 2)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for k, row in enumerate(series.features):
            day = day0 + datetime.timedelta(days=k)
            writer.writerow([day.isoformat()] + [f"{v:.9g}" for v in row])


def write_trace_rows_csv(trace, path):
    """A trace's CSV written one ``TraceRow`` at a time: the reference for ``write_trace_csv``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "round", "stock_id", "data_loss", "proximal_penalty", "wall_ms"])
        for row in trace.rows:
            writer.writerow([
                row.phase, row.round_index, row.stock_id,
                f"{row.data_loss:.9g}", f"{row.prox_penalty:.9g}", f"{row.wall_ms:.3f}",
            ])


def predict_one(model, window):
    """The (H,) forecast of one (L, d) window: a one-window ``predict_batch``."""
    return model.predict_batch(np.asarray(window)[None])[0]


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
    return WindowedDataset("SINE", lookback, horizon,
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
    for name, view in model.unpack(grad.values[None]).items():
        assert np.all(np.isfinite(view)), f"non-finite gradient in segment {name!r}"
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


@lru_cache(maxsize=None)
def filter_operator_basis(n):
    """(2n, n*n) T with Re IDFT(k * DFT(z)) = z @ ([k_re | k_im] @ T).reshape(n, n).

    The reference operator: it holds 16 n^3 bytes, so the model builds the
    same G as a circulant view of its n taps instead.
    """
    c, e = numerics.dft_matrices(n)
    ct, et, cu, eu = c[:, :, None], e[:, :, None], c[:, None, :], e[:, None, :]
    # row f, column t*n + u: k_re's share of G[t, u]; row n + f: k_im's share
    basis = np.concatenate([ct * cu + et * eu, et * cu - ct * eu]).reshape(2 * n, n * n) / n
    basis.flags.writeable = False
    return basis


def circulant_operator(kernel):
    """The model's (L, L) filter operator G of one [k_re | k_im] kernel: a view of its taps."""
    _, b_op = numerics.planar_dft_operators(len(kernel) // 2)
    doubled = np.concatenate([b_op, b_op], axis=1)  # the taps twice, as the model writes them
    return models._circulant(np.asarray(kernel)[None, None] @ doubled)[0]


def filter_series(model, z):
    """A paifilter model's kernel applied to (N, L) scalar series; the pre-head signal."""
    return z @ circulant_operator(model.unpack(model.export_params().values[None])["kernel"][0])


def _mse_and_scaled_residual(pred, targets):
    residual = pred - targets
    return float(np.mean(residual ** 2)), 2.0 * residual / residual.size


def dlinear_reference(model, inputs, targets):
    """(prediction, batch MSE, gradient) of dlinear in two stages, as plain numpy.

    The curve over the forecast steps, ``basis @ coef``, plus the anchor,
    the last row's mixed value; the gradient in layout order (coef, mix).
    """
    p = model.unpack(model.export_params().values[None])
    coef, mix = p["coef"][0], p["input_mix"][0]
    lookback, hyper = model.lookback, model.hyper
    t = lookback + np.arange(model.horizon, dtype=float)
    angles = 2.0 * np.pi * np.outer(t, np.arange(1, hyper["harmonics"] + 1)) / hyper["period"]
    basis = np.column_stack([t / lookback, np.ones_like(t), np.cos(angles), np.sin(angles)])
    last = inputs[:, -1]
    anchor = last @ mix if hyper["use_anchor"] else np.zeros(len(inputs))
    pred = basis @ coef + anchor[:, None]
    loss, dpred = _mse_and_scaled_residual(pred, targets)
    g_mix = last.T @ dpred.sum(axis=1) if hyper["use_anchor"] else np.zeros_like(mix)
    return pred, loss, np.concatenate([basis.T @ dpred.sum(axis=0), g_mix])


def paifilter_reference(model, inputs, targets):
    """(prediction, batch MSE, gradient) of paifilter in two stages, as plain numpy.

    The mixed series z = window @ mix, then the filtered head z @ G @ W^T + b
    with G the kernel's real operator; the gradient in layout order
    (kernel, head weight, head bias, mix).
    """
    p = {name: view[0] for name, view in
         model.unpack(model.export_params().values[None]).items()}
    lookback = model.lookback
    basis = filter_operator_basis(lookback)
    g_op = (p["kernel"] @ basis).reshape(lookback, lookback)
    weight, v = p["head_weight"], g_op @ p["head_weight"].T
    z = inputs @ p["input_mix"]
    pred = z @ v + p["head_bias"]
    loss, dpred = _mse_and_scaled_residual(pred, targets)
    dv, dz = z.T @ dpred, dpred @ v.T
    grad = [basis @ (dv @ weight).reshape(-1), (dv.T @ g_op).reshape(-1), dpred.sum(axis=0),
            np.einsum("nl,nlj->j", dz, inputs)]
    return pred, loss, np.concatenate(grad)


@pytest.fixture
def kernel_rows(monkeypatch):
    """The rows of every ``ForecastModel.loss_and_gradient`` call, appended as they run."""
    from csti.models import ForecastModel

    rows, kernel = [], ForecastModel.loss_and_gradient

    def counting(self, p, inputs, targets, g, call=None):
        rows.append(len(inputs))
        return kernel(self, p, inputs, targets, g, call)

    monkeypatch.setattr(ForecastModel, "loss_and_gradient", counting)
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_market():
    """3 stocks, 300 rows, moderate sharing; enough for fast protocol tests."""
    return windowed_market(3, 300, 0.7, seed=11)
