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
stack of rows, and ``unpack`` turns it into named (K, ...) views.

Every kind's kernel is bound once over views and buffers, as functions
of no arguments that run only ufuncs and matmuls writing with ``out=``,
in two parts. ``bind_batch`` binds the data work, every operation that
reads a (K, N, L, d) batch, over a ``workspace(K, N)``. ``bind_rows``
binds the theta-only work over every row of a stack and a
``workspace(K)``: a prologue builds what depends on theta alone, and an
epilogue turns the data work's per-row reductions into gradient
coordinates. A trainer runs the prologue once per step over its active
rows, its width-capped data calls, the epilogue, then one loss divide;
``bind`` composes the same for a one-off call. Every product and
reduction runs per row, so each row is bit-identical to the K=1 call.
The kernels check nothing: the trainer owns theta and checks shapes.
Reuse matters because temporaries freed at the end of every step leave
the top of the glibc heap free: glibc trims it, and the next step
faults the same pages back in.
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
from .numerics import ParamVector, _check_int, _check_real, layout_from_lengths

MODEL_KINDS = ("dlinear", "paifilter", "texfilter", "frets")

# Described by the source material but deliberately not implemented;
# validation errors mention them by name.
OUT_OF_SCOPE_KINDS = ("transformer", "timesnet", "patchtst")

_GATE_EPS = 1e-12
_F, _C = np.float64, np.complex128


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
    """A kind's kernel plus one immutable parameter vector.

    The instance's own theta is a read-only, finite copy checked at
    construction; it serves prediction, export and checkpoints. The binds
    take the ``unpack`` views of a theta stack and of a gradient stack
    instead, so a trainer binds its kernel work once over its own buffers
    and runs it without rebuilding the model.
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

    def _buffers(self, n):
        """One row's theta-only, then its n-window call's, (forward, backward) buffer specs."""
        raise NotImplementedError

    def _bind(self, p, inputs, ws, g=None):
        """(forward, backward): the data work, functions of no arguments over these views.

        ``forward`` writes ``ws["pred"]``; ``backward`` reads d(loss)/d(pred)
        there and writes what the data feeds of ``g`` and of the epilogue's
        inputs; None without ``g``.
        """
        raise NotImplementedError

    def bind_rows(self, p, ws, g=None):
        """(prologue, epilogue) over every row of ``p`` and a ``workspace(K)``; here none."""
        return (lambda: None), (lambda: None)

    # -- shared behaviour --------------------------------------------------
    @property
    def n_params(self) -> int:
        return self._values.size

    def unpack(self, stack: np.ndarray) -> dict:
        """Named (K, ...) views of a (K, P) stack: one per segment and one per group."""
        return {name: stack[:, span].reshape(-1, *shape) for name, span, shape in self._views}

    def workspace(self, rows: int, n: int | None = None, backward: bool = True) -> dict:
        """Forward, plus backward, buffers of a (rows, n)-window call; without n, theta-only ones."""
        forward, back, call_forward, call_back = self._buffers(n)
        if n is not None:
            forward = {"pred": (_F, n, self.horizon), **call_forward}
            back = dict(square=(_F, n, self.horizon), losses=(_F,), **call_back)
        specs = dict(forward, **back) if backward else forward
        return {name: np.empty((rows, *shape), dtype) for name, (dtype, *shape) in specs.items()}

    def bind_batch(self, p, inputs, targets, g, ws):
        """The data work of one kernel call over fixed views, as a function of no arguments.

        ``p`` and ``g`` are ``unpack`` views of (K, P) theta and gradient
        rows, inputs (K, N, L, d), targets (K, N, H); ``ws`` holds a
        ``workspace(K, N)``, which calls of one shape may share, and these
        rows of a ``workspace(K)``. With ``g`` the call returns the (K,)
        per-row squared-error sums, ``ws["losses"]``, which the caller
        divides by N * H after the epilogue; without, the prediction.
        """
        (forward, backward), pred = self._bind(p, inputs, ws, g), ws["pred"]
        if g is None:
            def predict():
                forward()
                return pred
            return predict
        k, n = inputs.shape[:2]
        square, squares, losses = ws["square"], ws["square"].reshape(k, -1), ws["losses"]
        scale = np.array(2.0 / (n * self.horizon))  # 0-d, so that no call converts a number

        def call():
            forward()
            np.subtract(pred, targets, out=pred)  # the residual, then d(loss)/d(pred)
            np.square(pred, out=square)
            np.add.reduce(squares, axis=1, out=losses)
            np.multiply(pred, scale, out=pred)
            backward()
            return losses
        return call

    def bind(self, p, inputs, targets=None, g=None, ws=None):
        """One whole call: prologue, ``bind_batch`` call, epilogue and loss divide.

        ``ws`` is a ``workspace(K, N)``, fresh by default. With ``g`` the
        call returns the (K,) batch MSEs and writes every gradient
        coordinate; without, the prediction. Every row's bits are those of
        the K=1 call and of a trainer's step. It trusts the shapes.
        """
        k, n, backward = *inputs.shape[:2], g is not None
        ws = dict(ws or self.workspace(k, n, backward), **self.workspace(k, None, backward))
        prologue, epilogue = self.bind_rows(p, ws, g)
        call = self.bind_batch(p, inputs, targets, g, ws)

        def one_off():
            prologue()
            if g is None:
                return call()
            losses = call()
            epilogue()
            return np.divide(losses, n * self.horizon, out=losses)
        return one_off

    def _predict(self, inputs):
        """``predict_batch``: a forward-only K=1 call at this model's own theta."""
        return self.bind(self._theta_views, np.asarray(inputs, dtype=np.float64)[None])()[0]

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

    def loss_and_gradient(self, p, inputs, targets, g, call=None) -> np.ndarray:
        """Per-row batch MSE of a stack; its gradient goes into ``g`` (see ``bind``).

        ``call`` runs as it is; without one a fresh ``bind`` call runs. A
        trainer runs each width-capped ``bind_batch`` call through here and
        leaves the prologue, epilogue and divide of its sums to its step.
        """
        return (call or self.bind(p, inputs, targets, g))()

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


def _mix(inputs, p, z):
    """Views for z = inputs @ input_mix into ``z`` (K, N, L): flat inputs, mix, flat z."""
    k, n, lookback, d = inputs.shape
    return (inputs.reshape(k, n * lookback, d), p["input_mix"][:, :, None],
            z.reshape(k, n * lookback, 1))


def _affine_bound(fan_in: int) -> float:
    return 1.0 / np.sqrt(fan_in)


def _uniform(bound):
    """Initializer drawing uniformly from [-bound, bound]."""
    return lambda rng, n: rng.uniform(-bound, bound, size=n)


def _normal(scale, mean=0.0):
    """Initializer drawing mean + scale * N(0, 1)."""
    return lambda rng, n: mean + scale * rng.standard_normal(n)


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
        if not isinstance(hyper["use_anchor"], bool):
            raise ContractViolation("dlinear: use_anchor must be a boolean")
        return {
            "harmonics": _check_int("dlinear: harmonics", hyper["harmonics"], 1),
            "period": _check_real("dlinear: period", hyper["period"], closed=False),
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

    def _buffers(self, n):
        return ({"curve": (_F, self.horizon, 1)}, {"dcurve": (_F, self.horizon)},
                {"z_last": (_F, n, 1)}, {"dz_last": (_F, n)})

    def bind_rows(self, p, ws, g=None):
        basis, coef, curve = self._basis, p["coef"][..., None], ws["curve"]

        def prologue():
            np.matmul(basis, coef, out=curve)
        if g is None:
            return prologue, None
        basis_t, dcurves, g_coef = basis.T, ws["dcurve"][..., None], g["coef"][..., None]

        def epilogue():
            np.matmul(basis_t, dcurves, out=g_coef)
        return prologue, epilogue

    def _bind(self, p, inputs, ws, g=None):
        last, mix, z_last = inputs[:, :, -1, :], p["input_mix"][..., None], ws["z_last"]
        curves, pred, anchor = ws["curve"][:, None, :, 0], ws["pred"], self.hyper["use_anchor"]

        def forward():
            if anchor:
                np.matmul(last, mix, out=z_last)
                np.add(curves, z_last, out=pred)
            else:
                np.copyto(pred, curves)
        if g is None:
            return forward, None
        last_t, dcurve, dz_last = _t(last), ws["dcurve"], ws["dz_last"]
        dz_lasts, g_mix = dz_last[..., None], g["input_mix"][..., None]

        def backward():
            np.add.reduce(pred, axis=1, out=dcurve)
            if anchor:
                np.add.reduce(pred, axis=2, out=dz_last)
                np.matmul(last_t, dz_lasts, out=g_mix)
            else:
                g_mix[...] = 0.0
        return forward, backward

    def predict_batch(self, inputs):
        return self._predict(inputs)


# ---------------------------------------------------------------------------
# paifilter
# ---------------------------------------------------------------------------

class PaiFilterModel(ForecastModel):
    """Static learnable complex kernel on the window spectrum.

    Re IDFT(k * DFT(z)) is real-linear in z and in k, so it equals z @ G
    with G = ([k_re | k_im] @ T).reshape(L, L), T the cached
    ``numerics.filter_operator_basis``. The prologue builds G and
    v = G @ W^T once per row and step, and a sample costs only z @ v;
    results differ from the DFT chain by rounding alone.
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

    def _buffers(self, n):
        L, h = self.lookback, self.horizon
        return ({"g_op": (_F, L, L), "v": (_F, L, h)}, {"dv": (_F, L, h), "dg_op": (_F, L, L)},
                {"z": (_F, n, L)}, {"dz": (_F, n, L)})

    def bind_rows(self, p, ws, g=None):
        k, L, basis = len(p["kernel"]), self.lookback, numerics.filter_operator_basis(self.lookback)
        g_op, v, weight_t = ws["g_op"], ws["v"], _t(p["head_weight"])
        # (K, 1, 2L) products keep each row's G bit-identical to K=1
        kernel, g_ops = p["kernel"][:, None], g_op.reshape(k, 1, L * L)

        def prologue():
            np.matmul(kernel, basis, out=g_ops)
            np.matmul(g_op, weight_t, out=v)  # (K, L, H)
        if g is None:
            return prologue, None
        dv, dg_op, weight, basis_t = ws["dv"], ws["dg_op"], p["head_weight"], basis.T
        dv_t, dg_ops = _t(dv), dg_op.reshape(k, 1, L * L)
        g_weight, g_kernel = g["head_weight"], g["kernel"][:, None]

        def epilogue():
            np.matmul(dv_t, g_op, out=g_weight)
            np.matmul(dv, weight, out=dg_op)
            np.matmul(dg_ops, basis_t, out=g_kernel)
        return prologue, epilogue

    def _bind(self, p, inputs, ws, g=None):
        flat, mix, z_flat = _mix(inputs, p, ws["z"])
        z, v, pred, bias = ws["z"], ws["v"], ws["pred"], p["head_bias"][:, None]

        def forward():
            np.matmul(flat, mix, out=z_flat)
            np.matmul(z, v, out=pred)
            np.add(pred, bias, out=pred)
        if g is None:
            return forward, None
        dv, dz, z_t, v_t = ws["dv"], ws["dz"], _t(z), _t(v)
        dz_row, g_bias, g_mix = dz.reshape(len(z), 1, -1), g["head_bias"], g["input_mix"][:, None]

        def backward():
            np.matmul(z_t, pred, out=dv)
            np.add.reduce(pred, axis=1, out=g_bias)
            np.matmul(pred, v_t, out=dz)
            np.matmul(dz_row, flat, out=g_mix)
        return forward, backward

    def predict_batch(self, inputs):
        return self._predict(inputs)


# ---------------------------------------------------------------------------
# texfilter
# ---------------------------------------------------------------------------

class TexFilterModel(ForecastModel):
    """Spectrum-conditioned kernel from a complex one-hidden-layer net.

    The kernel-producing output layer starts at the identity filter
    (bias re=1) with 0.01-scale weights so the untrained filter is
    near-pass-through; the hidden affine uses the standard fan-in rule.
    It runs on complex128 arrays, which the prologue builds from the re/im
    segments once per row and step: a complex product is one call, not four
    real matmuls and two adds. The backward pass carries dl/dRe + i dl/dIm
    of the real loss, which y = x w sends back as dy * conj(w).
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

    def _buffers(self, n):
        """The complex weights, their conjugates and gradients, then the (n, .) temporaries.

        The backward pass also reuses forward buffers whose values are dead
        by then: d(filtered) goes into ``z``, dy into ``ks``, d(gate) into
        ``r``, the modReLU pull into ``shifted`` and dz into ``filtered``.
        """
        L, m = self.lookback, self.hyper["hidden"]
        forward = {"z": (_F, n, L), "s": (_C, n, L), "u": (_C, n, m), "r": (_F, n, m),
                   "shifted": (_F, n, m), "active": (bool, n, m), "inv": (_F, n, m),
                   "scale": (_F, n, m), "a": (_C, n, m), "k": (_C, n, L), "ks": (_C, n, L),
                   "filtered": (_F, n, L)}
        backward = {"s_conj": (_C, n, L), "dk": (_C, n, L), "ds": (_C, n, L), "conj": (_C, n, m),
                    "da": (_C, n, m), "du": (_C, n, m)}
        weights = {"w1": (_C, m, L), "w2": (_C, L, m), "b1": (_C, m), "b2": (_C, L)}
        grads = {"d" + name: spec for name, spec in weights.items()}
        return weights, dict(grads, w1_conj=weights["w1"], w2_conj=weights["w2"]), forward, backward

    def bind_rows(self, p, ws, g=None):
        # the complex weights, from their re/im segments, and the gradient segments back
        pairs = [(part, f"filter_{name}_{suffix}", name) for name in ("w1", "w2", "b1", "b2")
                 for part, suffix in ((np.real, "re"), (np.imag, "im"))]
        parts = [(part(ws[name]), p[segment]) for part, segment, name in pairs]
        conjugates = [] if g is None else [(ws[name], ws[name + "_conj"]) for name in ("w1", "w2")]
        grads = [] if g is None else [(g[seg], part(ws["d" + name])) for part, seg, name in pairs]

        def prologue():
            for part, value in parts:
                np.copyto(part, value)
            for w, w_conj in conjugates:
                np.conjugate(w, out=w_conj)

        def epilogue():
            for g_part, value in grads:
                np.copyto(g_part, value)
        return prologue, epilogue if grads else None

    def _bind(self, p, inputs, ws, g=None):
        d_op, r_op = numerics.interleaved_dft_operators(self.lookback)
        flat, mix, z_flat = _mix(inputs, p, ws["z"])
        z, s, u, r, shifted, active, inv, scale, a, k, ks, filtered, pred = (
            ws[name] for name in ("z", "s", "u", "r", "shifted", "active", "inv", "scale", "a",
                                  "k", "ks", "filtered", "pred"))
        w1_t, w2_t, b1, b2 = _t(ws["w1"]), _t(ws["w2"]), ws["b1"][:, None], ws["b2"][:, None]
        s_real, ks_real, gate_bias = s.view(_F), ks.view(_F), p["filter_gate_bias"][:, None]
        weight_t, bias = _t(p["head_weight"]), p["head_bias"][:, None]

        def forward():
            np.matmul(flat, mix, out=z_flat)
            np.matmul(z, d_op, out=s_real)
            np.add(np.matmul(s, w1_t, out=u), b1, out=u)
            np.abs(u, out=r)
            np.add(r, gate_bias, out=shifted)
            np.maximum(r, _GATE_EPS, out=inv)
            np.divide(np.greater(shifted, 0.0, out=active), inv, out=inv)  # 1/r where active, else 0
            np.multiply(shifted, inv, out=scale)
            np.multiply(scale, u, out=a)
            np.add(np.matmul(a, w2_t, out=k), b2, out=k)
            np.multiply(k, s, out=ks)
            np.matmul(ks_real, r_op, out=filtered)
            np.add(np.matmul(filtered, weight_t, out=pred), bias, out=pred)
        if g is None:
            return forward, None
        s_conj, dk, ds, conj, da, du, w1_conj, w2_conj, dw1, dw2, db1, db2 = (
            ws[name] for name in ("s_conj", "dk", "ds", "conj", "da", "du", "w1_conj",
                                  "w2_conj", "dw1", "dw2", "db1", "db2"))
        pred_t, weight, r_op_t, d_op_t = _t(pred), p["head_weight"], r_op.T, d_op.T
        dk_t, du_t, conj_real, ds_real = _t(dk), _t(du), conj.real, ds.view(_F)
        g_weight, g_bias, g_gate = g["head_weight"], g["head_bias"], g["filter_gate_bias"]
        dz_row, g_mix = filtered.reshape(len(z), 1, -1), g["input_mix"][:, None]

        def backward():
            np.matmul(pred_t, filtered, out=g_weight)
            np.add.reduce(pred, axis=1, out=g_bias)
            np.matmul(pred, weight, out=z)
            # operand order as in y = x w: complex products are not symmetric under FMA
            np.matmul(z, r_op_t, out=ks_real)
            np.conjugate(s, out=s_conj)
            np.multiply(ks, s_conj, out=dk)
            np.multiply(np.conjugate(k, out=ds), ks, out=ds)
            np.matmul(dk_t, np.conjugate(a, out=conj), out=dw2)
            np.add.reduce(dk, axis=1, out=db2)
            np.matmul(dk, w2_conj, out=da)

            # modReLU: a = scale(r) * u with scale = (r + c)/r, d scale/dr = -c/r^2
            np.multiply(np.conjugate(u, out=conj), da, out=conj)
            np.multiply(conj_real, inv, out=r)  # dl/dc; inv is 0 where inactive
            np.add.reduce(r, axis=1, out=g_gate)
            np.multiply(scale, da, out=du)
            np.multiply(gate_bias, inv, out=shifted)  # the pull
            np.multiply(shifted, inv, out=shifted)
            np.multiply(shifted, r, out=shifted)
            np.subtract(du, np.multiply(shifted, u, out=conj), out=du)
            np.matmul(du_t, s_conj, out=dw1)
            np.add.reduce(du, axis=1, out=db1)
            np.add(ds, np.matmul(du, w1_conj, out=s_conj), out=ds)
            np.matmul(ds_real, d_op_t, out=filtered)
            np.matmul(dz_row, flat, out=g_mix)
        return forward, backward

    def predict_batch(self, inputs):
        return self._predict(inputs)


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

    def _buffers(self, n):
        L, m = self.lookback, self.hyper["hidden"]
        forward = {name: (_F, n, L) for name in ("z", "s_re", "s_im", "x_re", "x_im", "recon")}
        forward.update({name: (_F, n, m) for name in ("pre", "h_re", "h_im")})
        backward = {name: (_F, n, L) for name in ("drecon", "dx_re", "dx_im", "ds_re", "ds_im")}
        backward.update(du=(_F, n, m), dtanh=(_F, n, m))
        return {}, {}, forward, backward

    def _bind(self, p, inputs, ws, g=None):
        # numerics.dft_batch and numerics.real_idft_batch, into buffers
        L = self.lookback
        c, e = numerics.dft_matrices(L)
        c_t, e_t = c.T, e.T
        flat, mix, z_flat = _mix(inputs, p, ws["z"])
        z, s_re, s_im, pre, x_re, x_im, recon, pred = (
            ws[name] for name in ("z", "s_re", "s_im", "pre", "x_re", "x_im", "recon", "pred"))
        halves = [(ws["s_" + part], _t(p[part + "_w1"]), p[part + "_b1"][:, None], ws["h_" + part],
                   _t(p[part + "_w2"]), p[part + "_b2"][:, None], ws["x_" + part])
                  for part in ("re", "im")]
        weight_t, bias = _t(p["head_weight"]), p["head_bias"][:, None]

        def forward():
            np.matmul(flat, mix, out=z_flat)
            np.matmul(z, c_t, out=s_re)
            np.negative(np.matmul(z, e_t, out=s_im), out=s_im)
            for s, w1_t, b1, h, w2_t, b2, x in halves:
                np.tanh(np.add(np.matmul(s, w1_t, out=pre), b1, out=pre), out=h)
                np.add(np.matmul(h, w2_t, out=x), b2, out=x)
            np.matmul(x_re, c, out=recon)
            np.subtract(recon, np.matmul(x_im, e, out=x_re), out=recon)  # x_re is dead by then
            np.divide(recon, L, out=recon)
            np.add(np.matmul(recon, weight_t, out=pred), bias, out=pred)
        if g is None:
            return forward, None
        drecon, dx_re, dx_im, du, dtanh, ds_re, ds_im = (
            ws[name] for name in ("drecon", "dx_re", "dx_im", "du", "dtanh", "ds_re", "ds_im"))
        paths = [(ws["dx_" + part], _t(ws["dx_" + part]), ws["h_" + part], p[part + "_w2"],
                  g[part + "_w2"], g[part + "_b2"], ws["s_" + part], p[part + "_w1"],
                  g[part + "_w1"], g[part + "_b1"], ws["ds_" + part]) for part in ("re", "im")]
        pred_t, weight, du_t = _t(pred), p["head_weight"], _t(du)
        g_weight, g_bias = g["head_weight"], g["head_bias"]
        dz_row, g_mix = drecon.reshape(len(z), 1, -1), g["input_mix"][:, None]

        def backward():
            np.matmul(pred_t, recon, out=g_weight)
            np.add.reduce(pred, axis=1, out=g_bias)
            np.matmul(pred, weight, out=drecon)
            np.divide(np.matmul(drecon, c_t, out=dx_re), L, out=dx_re)
            np.negative(np.matmul(drecon, e_t, out=dx_im), out=dx_im)
            np.divide(dx_im, L, out=dx_im)
            for dx, dx_t, h, w2, g_w2, g_b2, s, w1, g_w1, g_b1, ds in paths:
                np.matmul(dx_t, h, out=g_w2)
                np.add.reduce(dx, axis=1, out=g_b2)
                np.matmul(dx, w2, out=du)
                np.subtract(1.0, np.multiply(h, h, out=dtanh), out=dtanh)
                np.multiply(du, dtanh, out=du)
                np.matmul(du_t, s, out=g_w1)
                np.add.reduce(du, axis=1, out=g_b1)
                np.matmul(du, w1, out=ds)
            np.matmul(ds_re, c, out=drecon)  # dz; drecon is dead by then
            np.subtract(drecon, np.matmul(ds_im, e, out=ds_re), out=drecon)
            np.matmul(dz_row, flat, out=g_mix)
        return forward, backward

    def predict_batch(self, inputs):
        return self._predict(inputs)


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
