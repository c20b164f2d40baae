"""Forecasting model zoo: stateless kernels over one flat parameter vector.

Every model first collapses the (L, d) window to a scalar series via a
learned input mix, then applies its own mapping to an H-step forecast:

* dlinear    -- explicit linear trend plus a truncated Fourier seasonal
               sum evaluated at the forecast steps, anchored to the
               window's last mixed value.
* paifilter  -- learnable static complex kernel applied to the window
               spectrum, inverse-transformed, affine head; a linear map of
               the series, so it runs as one precomposed real operator.
* texfilter  -- spectrum-conditioned kernel produced by a one-hidden-
               layer complex network (modReLU) on complex128 spectra.
* frets      -- separate real networks for the real and imaginary parts
               of the spectrum, recombined before the inverse transform.

The inverse transform keeps the real part only: learned kernels are not
conjugate-symmetric, so their filtered spectra are projected back onto
real signals. Backward passes are hand-derived and are checked against
central finite differences in the test suite.

Parameters live in flat float64 rows. Each kind declares an ordered
(segment name, shape, initializer) table; the segment layout and the
seeded initial draw both follow it. A kind may also name ``groups``:
runs of adjacent segments that it reads and writes as one (K, n) view,
so no kernel concatenates or splits segments. Kernels run over a (K, P)
stack of rows: ``unpack`` turns it into named (K, ...) views, and
``_forward`` reads them for a (K, N, L, d) batch stack. It returns a
fresh prediction that its cache does not hold; the shared loss turns it
into d(loss)/d(pred) in place. ``_backward`` then writes every
coordinate of the views of the gradient stack, with ``out=`` wherever a
product or reduction lands in one view. A caller binds both sets of
views once and reuses them for every step, since writes to the stack
show through them. Every product and reduction runs per row,
so each row of a stacked call is bit-identical to the K=1 call. The
kernels check nothing: the trainer owns theta and checks shapes.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .errors import (
    ContractViolation,
    CstiError,
    MergeIncompatibilityError,
    NumericInputError,
    ShapeMismatchError,
)
from .numerics import ParamVector, layout_from_lengths

MODEL_KINDS = ("dlinear", "paifilter", "texfilter", "frets")

# Described by the source material but deliberately not implemented;
# validation errors mention them by name.
OUT_OF_SCOPE_KINDS = ("transformer", "timesnet", "patchtst")

_GATE_EPS = 1e-12


def _check_batch(inputs, targets, lookback, horizon, n_features):
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[1:] != (lookback, n_features):
        raise ShapeMismatchError(
            f"batch inputs must be (N, {lookback}, {n_features}), got {inputs.shape}"
        )
    if targets.shape != (inputs.shape[0], horizon):
        raise ShapeMismatchError(
            f"batch targets must be (N, {horizon}), got {targets.shape}"
        )
    if inputs.shape[0] == 0:
        raise ContractViolation("batch must be non-empty")
    return inputs, targets


class ForecastModel:
    """A kind's forward/backward kernel plus one immutable parameter vector.

    The instance's own theta is a read-only, finite copy checked at
    construction; it serves prediction, export and checkpoints.
    ``loss_and_gradient`` takes the ``unpack`` views of a theta stack and
    of a gradient stack instead, so a trainer binds them once over its
    own buffers and runs the kernel without rebuilding the model.
    """

    kind = "abstract"
    groups = {}  # view name -> (first, last) segment of a run of adjacent segments

    def __init__(self, lookback: int, horizon: int, n_features: int,
                 hyper: dict, values: np.ndarray):
        self.lookback = int(lookback)
        self.horizon = int(horizon)
        self.n_features = int(n_features)
        self.hyper = dict(hyper)
        shapes = self.segments(self.lookback, self.horizon, self.n_features, self.hyper)
        self._layout = layout_from_lengths(
            (name, math.prod(shape)) for name, shape, _ in shapes
        )
        spans = {seg.name: slice(seg.offset, seg.offset + seg.length) for seg in self._layout}
        self._views = tuple((name, spans[name], shape) for name, shape, _ in shapes) + tuple(
            (name, slice(spans[first].start, spans[last].stop),
             (spans[last].stop - spans[first].start,))
            for name, (first, last) in self.groups.items()
        )
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        total = sum(seg.length for seg in self._layout)
        if values.size != total:
            raise MergeIncompatibilityError(
                f"{self.kind}: expected {total} parameters, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericInputError(f"{self.kind}: non-finite parameters")
        values = values.copy()
        values.flags.writeable = False
        self._values = values
        self._theta_views = self.unpack(values[None])

    # -- subclass hooks ----------------------------------------------------
    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        """Ordered (name, shape, initializer) rows; the layout follows them."""
        raise NotImplementedError

    @classmethod
    def default_hyper(cls, lookback, horizon, n_features):
        return {}

    @classmethod
    def check_hyper(cls, hyper):
        """Validate resolved hyperparameters and coerce their types."""
        return hyper

    def _forward(self, p, inputs):
        """(pred (K, N, H), cache) from the (K, ...) views ``p``; pred is fresh, not cached."""
        raise NotImplementedError

    def _backward(self, p, inputs, dpred, cache, g):
        """Write d(loss_k)/d(theta_k) into the (K, ...) gradient views ``g``."""
        raise NotImplementedError

    # -- shared behaviour --------------------------------------------------
    @property
    def n_params(self) -> int:
        return self._values.size

    def unpack(self, stack: np.ndarray) -> dict:
        """Named (K, ...) views of a (K, P) stack: one per segment and one per group."""
        return {name: stack[:, span].reshape(-1, *shape) for name, span, shape in self._views}

    def _predict(self, inputs):
        """``predict_batch``: the K=1 forward pass at this model's own theta."""
        return self._forward(self._theta_views, np.asarray(inputs, dtype=np.float64)[None])[0][0]

    def predict(self, window) -> np.ndarray:
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (self.lookback, self.n_features):
            raise ShapeMismatchError(
                f"window must be ({self.lookback}, {self.n_features}), got {window.shape}"
            )
        if not np.all(np.isfinite(window)):
            raise NumericInputError("window contains non-finite values")
        return self.predict_batch(window[None])[0]

    def loss(self, inputs, targets) -> float:
        inputs, targets = _check_batch(
            inputs, targets, self.lookback, self.horizon, self.n_features
        )
        pred = self.predict_batch(inputs)
        return float(np.mean((pred - targets) ** 2))

    def export_params(self) -> ParamVector:
        return ParamVector(self._values, self._layout)

    def import_params(self, pvec: ParamVector) -> "ForecastModel":
        if pvec.layout != self._layout:
            raise MergeIncompatibilityError(
                f"{self.kind}: incoming layout does not match model layout"
            )
        return type(self)(
            self.lookback, self.horizon, self.n_features, self.hyper, pvec.values
        )

    def loss_and_gradient(self, p, inputs, targets, g) -> np.ndarray:
        """Per-row batch MSE of a stack; its gradient goes into ``g``.

        ``p`` and ``g`` are the ``unpack`` views of a (K, P) theta stack
        and of a (K, P) gradient stack; inputs (K, N, L, d), targets
        (K, N, H) -> losses (K,). Every coordinate of ``g`` is written,
        through ``out=`` where one product or reduction fills a view. The
        only other write is to the fresh prediction of ``_forward``, which
        becomes the residual and then d(loss)/d(pred) in place. A kernel:
        it trusts the shapes, which the caller has checked.
        """
        pred, cache = self._forward(p, inputs)
        k, n, h = pred.shape
        pred -= targets
        losses = np.add.reduce(np.square(pred).reshape(k, n * h), axis=1) / (n * h)  # np.mean
        pred *= 2.0 / (n * h)
        self._backward(p, inputs, pred, cache, g)
        return losses

    def loss_gradient(self, inputs, targets) -> ParamVector:
        inputs, targets = _check_batch(
            inputs, targets, self.lookback, self.horizon, self.n_features
        )
        grad = np.empty((1, self.n_params))
        self.loss_and_gradient(self._theta_views, inputs[None], targets[None], self.unpack(grad))
        return ParamVector(grad[0], self._layout)


def _t(a):
    """Transpose the trailing matrix of every row of a stack."""
    return a.swapaxes(-1, -2)


def _mix_forward(inputs, mix):
    k, n, L, d = inputs.shape
    return (inputs.reshape(k, n * L, d) @ mix[:, :, None]).reshape(k, n, L)


def _mix_backward(inputs, dz, g):
    np.matmul(dz.reshape(len(dz), 1, -1), inputs.reshape(len(dz), -1, inputs.shape[-1]),
              out=g["input_mix"][:, None])


def _head_forward(series, w, b):
    return series @ _t(w) + b[:, None]


def _head_backward(series, dpred, p, g):
    """Write the head's gradients into ``g``; returns d(loss)/d(series)."""
    np.matmul(_t(dpred), series, out=g["head_weight"])
    np.add.reduce(dpred, axis=1, out=g["head_bias"])
    return dpred @ p["head_weight"]


def _filter_spectrum(s_re, s_im, k_re, k_im):
    """Real part of the inverse transform of the spectrum times a kernel."""
    return numerics.real_idft_batch(s_re * k_re - s_im * k_im, s_re * k_im + s_im * k_re)


def _affine_bound(fan_in: int) -> float:
    return 1.0 / np.sqrt(fan_in)


def _uniform(bound):
    """Initializer drawing uniformly from [-bound, bound]."""
    return lambda rng, n: rng.uniform(-bound, bound, size=n)


def _normal(scale, mean=0.0):
    """Initializer drawing mean + scale * N(0, 1)."""
    return lambda rng, n: mean + scale * rng.standard_normal(n)


def _check_int(name, value, low):
    """``value`` as an int >= low; bools and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ContractViolation(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_hidden(kind, hyper):
    return {"hidden": _check_int(f"{kind}: hidden width", hyper["hidden"], 1)}


# ---------------------------------------------------------------------------
# dlinear
# ---------------------------------------------------------------------------

class DLinearModel(ForecastModel):
    """Trend + Fourier seasonal curve over forecast steps, plus anchor.

    The trend slope acts on time measured in lookback units (t/L); the
    raw step index would put the slope's curvature two orders of
    magnitude above every other coordinate and destabilize SGD at the
    shared learning rate. Harmonics stay on raw steps so the seasonal
    period is expressed in rows.
    """

    kind = "dlinear"
    groups = {"coef": ("trend", "seasonal_sin")}

    def __init__(self, lookback, horizon, n_features, hyper, values):
        super().__init__(lookback, horizon, n_features, hyper, values)
        # forecast step h (0-based) sits at window-relative time t = L + h
        t = self.lookback + np.arange(self.horizon, dtype=np.float64)
        harm = np.arange(1, self.hyper["harmonics"] + 1, dtype=np.float64)
        angles = 2.0 * np.pi * np.outer(t, harm) / self.hyper["period"]  # (H, k)
        self._basis = np.concatenate(
            [
                np.column_stack([t / self.lookback, np.ones_like(t)]),
                np.cos(angles),
                np.sin(angles),
            ],
            axis=1,
        )  # (H, 2 + 2k)

    @classmethod
    def default_hyper(cls, lookback, horizon, n_features):
        return {"harmonics": 3, "period": float(lookback), "use_anchor": True}

    @classmethod
    def check_hyper(cls, hyper):
        period = hyper["period"]
        if isinstance(period, bool) or not isinstance(period, (int, float)) or not period > 0:
            raise ContractViolation(f"dlinear: period must be a number > 0, got {period!r}")
        if not isinstance(hyper["use_anchor"], bool):
            raise ContractViolation("dlinear: use_anchor must be a boolean")
        return {
            "harmonics": _check_int("dlinear: harmonics", hyper["harmonics"], 1),
            "period": float(period),
            "use_anchor": hyper["use_anchor"],
        }

    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        k = hyper["harmonics"]
        init = _uniform(_affine_bound(2 + 2 * k + n_features))
        return (
            ("trend", (2,), init),
            ("seasonal_cos", (k,), init),
            ("seasonal_sin", (k,), init),
            ("input_mix", (n_features,), init),
        )

    def _forward(self, p, inputs):
        curve = (self._basis @ p["coef"][..., None])[..., 0]  # (K, H)
        if self.hyper["use_anchor"]:
            z_last = (inputs[:, :, -1, :] @ p["input_mix"][..., None])[..., 0]  # (K, N)
            pred = curve[:, None, :] + z_last[:, :, None]
        else:
            pred = np.broadcast_to(curve[:, None, :], (*inputs.shape[:2], self.horizon)).copy()
        return pred, None

    def predict_batch(self, inputs):
        return self._predict(inputs)

    def _backward(self, p, inputs, dpred, cache, g):
        np.matmul(self._basis.T, np.add.reduce(dpred, axis=1)[..., None], out=g["coef"][..., None])
        if self.hyper["use_anchor"]:
            np.matmul(_t(inputs[:, :, -1, :]), np.add.reduce(dpred, axis=2)[..., None],
                      out=g["input_mix"][..., None])
        else:
            g["input_mix"][...] = 0.0


# ---------------------------------------------------------------------------
# paifilter
# ---------------------------------------------------------------------------

class PaiFilterModel(ForecastModel):
    """Static learnable complex kernel on the window spectrum.

    Re IDFT(k * DFT(z)) is real-linear in z and in k, so it equals z @ G
    with G = ([k_re | k_im] @ T).reshape(L, L), T the cached
    ``numerics.filter_operator_basis``. G and v = G @ W^T are built once
    per row and step, and a sample costs only z @ v; results differ from
    the DFT chain by rounding alone.
    """

    kind = "paifilter"
    groups = {"kernel": ("kernel_re", "kernel_im")}

    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        head = _uniform(_affine_bound(lookback))
        return (
            ("kernel_re", (lookback,), _normal(0.01, mean=1.0)),
            ("kernel_im", (lookback,), _normal(0.01)),
            ("head_weight", (horizon, lookback), head),
            ("head_bias", (horizon,), head),
            ("input_mix", (n_features,), _uniform(_affine_bound(n_features))),
        )

    def _operator(self, p):  # (K, 1, 2L) products keep each row's G bit-identical to K=1
        g_op = p["kernel"][:, None] @ numerics.filter_operator_basis(self.lookback)
        return g_op.reshape(-1, self.lookback, self.lookback)

    def filter_series(self, z: np.ndarray) -> np.ndarray:
        """Apply the kernel to (N, L) scalar series; the pre-head signal."""
        return z @ self._operator(self._theta_views)[0]

    def _forward(self, p, inputs):
        z = _mix_forward(inputs, p["input_mix"])
        g_op = self._operator(p)
        v = g_op @ _t(p["head_weight"])  # (K, L, H)
        return z @ v + p["head_bias"][:, None], (z, g_op, v)

    def predict_batch(self, inputs):
        return self._predict(inputs)

    def _backward(self, p, inputs, dpred, cache, g):
        z, g_op, v = cache
        L = self.lookback
        dv = _t(z) @ dpred
        np.matmul(_t(dv), g_op, out=g["head_weight"])
        np.add.reduce(dpred, axis=1, out=g["head_bias"])
        dg_op = (dv @ p["head_weight"]).reshape(-1, 1, L * L)
        np.matmul(dg_op, numerics.filter_operator_basis(L).T, out=g["kernel"][:, None])
        _mix_backward(inputs, dpred @ _t(v), g)


# ---------------------------------------------------------------------------
# texfilter
# ---------------------------------------------------------------------------

class TexFilterModel(ForecastModel):
    """Spectrum-conditioned kernel from a complex one-hidden-layer net.

    The kernel-producing output layer starts at the identity filter
    (bias re=1) with 0.01-scale weights so the untrained filter is
    near-pass-through; the hidden affine uses the standard fan-in rule.
    It runs on complex128 arrays, built from the re/im segments once per row
    and step: a complex product is one call, not four real matmuls and two
    adds. The backward pass carries dl/dRe + i dl/dIm of the real loss, which
    y = x w sends back as dy * conj(w).
    """

    kind = "texfilter"

    @classmethod
    def default_hyper(cls, lookback, horizon, n_features):
        return {"hidden": lookback}

    @classmethod
    def check_hyper(cls, hyper):
        return _check_hidden(cls.kind, hyper)

    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        m, L = hyper["hidden"], lookback
        hidden, small = _uniform(_affine_bound(L)), _normal(0.01)
        return (
            ("filter_w1_re", (m, L), hidden),
            ("filter_w1_im", (m, L), hidden),
            ("filter_b1_re", (m,), hidden),
            ("filter_b1_im", (m,), hidden),
            ("filter_gate_bias", (m,), small),
            ("filter_w2_re", (L, m), small),
            ("filter_w2_im", (L, m), small),
            ("filter_b2_re", (L,), _normal(0.01, mean=1.0)),
            ("filter_b2_im", (L,), small),
            ("head_weight", (horizon, L), hidden),
            ("head_bias", (horizon,), hidden),
            ("input_mix", (n_features,), _uniform(_affine_bound(n_features))),
        )

    def _forward(self, p, inputs):
        d_op, r_op = numerics.interleaved_dft_operators(self.lookback)
        w1, w2 = _get_complex(p, "filter_w1"), _get_complex(p, "filter_w2")
        b1, b2 = _get_complex(p, "filter_b1")[:, None], _get_complex(p, "filter_b2")[:, None]
        z = _mix_forward(inputs, p["input_mix"])
        s = (z @ d_op).view(np.complex128)
        u = s @ _t(w1) + b1
        r = np.abs(u)
        shifted = r + p["filter_gate_bias"][:, None]
        inv = (shifted > 0.0) / np.maximum(r, _GATE_EPS)  # 1/r where active, else 0
        scale = shifted * inv
        a = scale * u
        k = a @ _t(w2) + b2
        filtered = (k * s).view(np.float64) @ r_op
        pred = _head_forward(filtered, p["head_weight"], p["head_bias"])
        return pred, (s, u, inv, scale, a, k, filtered, w1, w2)

    def predict_batch(self, inputs):
        return self._predict(inputs)

    def _backward(self, p, inputs, dpred, cache, g):
        s, u, inv, scale, a, k, filtered, w1, w2 = cache
        d_op, r_op = numerics.interleaved_dft_operators(self.lookback)
        dfiltered = _head_backward(filtered, dpred, p, g)
        # temporaries go left: numpy may reuse a big right one, swapping FMA operands
        dy = (dfiltered @ r_op.T).view(np.complex128)
        s_conj = s.conj()
        dk = dy * s_conj
        ds = k.conj() * dy
        _set_complex(g, filter_w2=_t(dk) @ a.conj(), filter_b2=np.add.reduce(dk, axis=1))
        da = dk @ w2.conj()

        # modReLU: a = scale(r) * u with scale = (r + c)/r, d scale/dr = -c/r^2
        dgate = (u.conj() * da).real * inv  # dl/dc; inv is 0 where inactive
        np.add.reduce(dgate, axis=1, out=g["filter_gate_bias"])
        du = scale * da - (p["filter_gate_bias"][:, None] * inv * inv * dgate) * u
        _set_complex(g, filter_w1=_t(du) @ s_conj, filter_b1=np.add.reduce(du, axis=1))
        ds += du @ w1.conj()

        _mix_backward(inputs, ds.view(np.float64) @ d_op.T, g)


def _get_complex(p, name):
    out = p[name + "_re"].astype(np.complex128)
    out.imag = p[name + "_im"]
    return out


def _set_complex(g, **grads):
    """Write complex gradients into their ``<name>_re``/``<name>_im`` views."""
    for name, value in grads.items():
        g[name + "_re"][...], g[name + "_im"][...] = value.real, value.imag


# ---------------------------------------------------------------------------
# frets
# ---------------------------------------------------------------------------

class FretsModel(ForecastModel):
    """Separate tanh MLPs on the real and imaginary spectrum parts."""

    kind = "frets"

    @classmethod
    def default_hyper(cls, lookback, horizon, n_features):
        return {"hidden": lookback}

    @classmethod
    def check_hyper(cls, hyper):
        return _check_hidden(cls.kind, hyper)

    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        m, L = hyper["hidden"], lookback
        first, second = _uniform(_affine_bound(L)), _uniform(_affine_bound(m))
        return (
            ("re_w1", (m, L), first),
            ("re_b1", (m,), first),
            ("re_w2", (L, m), second),
            ("re_b2", (L,), second),
            ("im_w1", (m, L), first),
            ("im_b1", (m,), first),
            ("im_w2", (L, m), second),
            ("im_b2", (L,), second),
            ("head_weight", (horizon, L), first),
            ("head_bias", (horizon,), first),
            ("input_mix", (n_features,), _uniform(_affine_bound(n_features))),
        )

    def _forward(self, p, inputs):
        z = _mix_forward(inputs, p["input_mix"])
        s_re, s_im = numerics.dft_batch(z)
        h_re = np.tanh(s_re @ _t(p["re_w1"]) + p["re_b1"][:, None])
        x_re = h_re @ _t(p["re_w2"]) + p["re_b2"][:, None]
        h_im = np.tanh(s_im @ _t(p["im_w1"]) + p["im_b1"][:, None])
        x_im = h_im @ _t(p["im_w2"]) + p["im_b2"][:, None]
        recon = numerics.real_idft_batch(x_re, x_im)
        pred = _head_forward(recon, p["head_weight"], p["head_bias"])
        return pred, (s_re, s_im, h_re, h_im, recon)

    def predict_batch(self, inputs):
        return self._predict(inputs)

    def _backward(self, p, inputs, dpred, cache, g):
        s_re, s_im, h_re, h_im, recon = cache
        drecon = _head_backward(recon, dpred, p, g)
        dx_re, dx_im = numerics.real_idft_batch_adjoint(drecon)

        np.matmul(_t(dx_re), h_re, out=g["re_w2"])
        np.add.reduce(dx_re, axis=1, out=g["re_b2"])
        du_re = (dx_re @ p["re_w2"]) * (1.0 - h_re * h_re)
        np.matmul(_t(du_re), s_re, out=g["re_w1"])
        np.add.reduce(du_re, axis=1, out=g["re_b1"])
        ds_re = du_re @ p["re_w1"]

        np.matmul(_t(dx_im), h_im, out=g["im_w2"])
        np.add.reduce(dx_im, axis=1, out=g["im_b2"])
        du_im = (dx_im @ p["im_w2"]) * (1.0 - h_im * h_im)
        np.matmul(_t(du_im), s_im, out=g["im_w1"])
        np.add.reduce(du_im, axis=1, out=g["im_b1"])
        ds_im = du_im @ p["im_w1"]

        _mix_backward(inputs, numerics.dft_batch_adjoint(ds_re, ds_im), g)


# ---------------------------------------------------------------------------
# construction and checkpoints
# ---------------------------------------------------------------------------

_CLASSES = {
    cls.kind: cls
    for cls in (DLinearModel, PaiFilterModel, TexFilterModel, FretsModel)
}


def _resolve(kind, lookback, horizon, n_features, hyper, complete=False):
    """(class, shapes, checked hyper) for a model; the checks ``build_model`` makes.

    ``hyper`` overrides the kind's defaults. With ``complete`` (a checkpoint
    header) it must name exactly the kind's keys.
    """
    if kind not in _CLASSES:
        raise ContractViolation(
            f"unknown model kind {kind!r}; supported: {', '.join(MODEL_KINDS)}"
        )
    shapes = (_check_int("lookback", lookback, 4), _check_int("horizon", horizon, 1),
              _check_int("feature count", n_features, 2))
    if shapes[2] > 3:
        raise ContractViolation("feature count must be 2 or 3")
    cls = _CLASSES[kind]
    resolved = cls.default_hyper(*shapes)
    if not isinstance(hyper, dict):
        raise ContractViolation(f"{kind}: hyperparameters must be a mapping")
    unknown = [key for key in hyper if key not in resolved]
    if unknown:
        raise ContractViolation(f"{kind}: unknown hyperparameter {unknown[0]!r}")
    missing = [key for key in resolved if key not in hyper]
    if complete and missing:
        raise ContractViolation(f"{kind}: missing hyperparameter {missing[0]!r}")
    resolved.update(hyper)
    return cls, shapes, cls.check_hyper(resolved)


def build_model(kind: str, lookback: int, horizon: int, n_features: int,
                hyper: dict | None = None, seed: int = 0) -> ForecastModel:
    """Construct a seeded model; layout depends only on the arguments."""
    cls, shapes, resolved = _resolve(kind, lookback, horizon, n_features, hyper or {})
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), MODEL_KINDS.index(kind))))
    values = np.concatenate([
        init(rng, math.prod(shape)) for _, shape, init in cls.segments(*shapes, resolved)
    ])
    return cls(*shapes, resolved, values)


def save_checkpoint(model: ForecastModel, path) -> None:
    """Write ``model`` as a ``checkpoint`` container (layout in ``numerics``).

    The header adds kind, lookback, horizon, n_features and hyper.
    """
    numerics.save_container(
        path, "checkpoint", model.export_params(), kind=model.kind, lookback=model.lookback,
        horizon=model.horizon, n_features=model.n_features, hyper=model.hyper,
    )


def load_checkpoint(path) -> ForecastModel:
    """The model of a ``save_checkpoint`` file.

    After the container checks, the header goes through ``build_model``'s
    checks, must name every hyperparameter of its kind and must have that
    kind's layout. Any failure raises ``ContractViolation`` naming ``path``.
    """
    header, pvec = numerics.load_container(
        path, "checkpoint", ("kind", "lookback", "horizon", "n_features", "hyper"))
    try:
        cls, shapes, hyper = _resolve(
            header["kind"], header["lookback"], header["horizon"], header["n_features"],
            header["hyper"], complete=True,
        )
        model = cls(*shapes, hyper, pvec.values)
        if pvec.layout != model._layout:
            raise ContractViolation("parameter layout does not match the header")
        return model
    except (CstiError, TypeError) as err:  # TypeError: an unhashable kind
        raise ContractViolation(f"{path}: {err}") from None
