"""Forecasting model zoo: stateless kernels over one flat parameter vector.

Every model first collapses the (L, d) window to a scalar series via a
learned input mix, then applies its own mapping to an H-step forecast:

* dlinear    -- explicit linear trend plus a truncated Fourier seasonal
               sum evaluated at the forecast steps, anchored to the
               window's last mixed value.
* paifilter  -- learnable static complex kernel applied to the window
               spectrum, inverse-transformed, affine head; a circular
               convolution of the series, so it runs as one real product.
* texfilter  -- spectrum-conditioned kernel produced by a one-hidden-
               layer complex network (modReLU) on complex128 spectra.
* frets      -- separate real networks for the real and imaginary parts
               of the spectrum, recombined before the inverse transform.

The inverse transform keeps the real part only: learned kernels are not
conjugate-symmetric, so their filtered spectra are projected back onto
real signals. Backward passes are hand-derived and are checked against
central finite differences in the test suite.

A model holds its parameters as one ``numerics.ParamVector``, which checks
them once, and exports that same object. Each kind declares an ordered
(segment name, shape, initializer) table, one segment per tensor a kernel
reads in place; the (name, length) layout and the seeded initial draw both
follow it, and a model rejects a vector of any other layout. Kernels run
over a (K, P) stack of flat float64 rows, the model's own or a trainer's,
through the named (K, ...) views ``unpack`` makes of it. Each kind's
``rows_read`` turns (N, L, d) windows into the contiguous design its
kernel reads. Dlinear and paifilter are affine maps of the window once
theta is fixed, so their design is the part of the window they read plus
a column of ones, and a data call is one product with a per-row weight
block W the prologue builds: ``pred = X @ W`` forward and
``gW = X^T @ r`` backward, which the epilogue folds back into the
segments. Texfilter and frets read the whole window.

Every kind's kernel is bound once over views and buffers, as functions
of no arguments that run only ufuncs and matmuls writing with ``out=``,
in two parts. ``bind_batch`` binds the data work, every operation that
reads a (K, N, ...) batch of designs, over a ``workspace(K, N)``: the
kind's forward into ``pred``, the residual r = pred - targets in place,
and the kind's backward, which reads r and leaves the unscaled gradient
sum r * d(pred)/d(theta). ``bind_rows`` binds the theta-only work over
every row of a stack and a ``workspace(K)``: a prologue builds what
depends on theta alone, and an epilogue turns the data work's per-row
reductions into gradient coordinates. A trainer runs the prologue once
per step over its active rows, its data calls (``jobs`` caps the rows of
a call that holds buffers), the epilogue, one dot r . r per run of rows
with one batch size (``bind_sum_of_squares``), one loss divide and one
scale of the gradient by 2 / (N * H); ``bind`` composes the same for a
one-off call. Every product and reduction runs per row, so each row is
bit-identical to the K=1 call.
The kernels check nothing: ``predict_batch`` checks its windows once, and a
trainer trusts what its entry points checked.
Reuse matters because temporaries freed at the end of every step leave
the top of the glibc heap free: glibc trims it, and the next step
faults the same pages back in.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .data import HORIZON, SEED, windows_finite
from .errors import (
    ContractViolation,
    CstiError,
    MergeIncompatibilityError,
    NumericInputError,
    ShapeMismatchError,
)
from .numerics import BOOLEAN, POSITIVE, ParamVector, check, integer, shown

LOOKBACK = integer(4)  # which the spec's window.lookback row holds too
_WIDTH = integer(1)  # a hidden width or harmonic count

MODEL_KINDS = ("dlinear", "paifilter", "texfilter", "frets")

# Described by the source material but deliberately not implemented;
# validation errors mention them by name.
OUT_OF_SCOPE_KINDS = ("transformer", "timesnet", "patchtst")

_GATE_EPS = 1e-12
_F, _C = np.float64, np.complex128


def _check_inputs(inputs, lookback, n_features):
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[1:] != (lookback, n_features):
        raise ShapeMismatchError(
            f"batch inputs must be (N, {lookback}, {n_features}), got {inputs.shape}"
        )
    if inputs.shape[0] == 0:
        raise ContractViolation("batch must be non-empty")
    if not windows_finite(inputs):
        raise NumericInputError("batch inputs contain non-finite values")
    return inputs


class ForecastModel:
    """A kind's kernel plus one immutable parameter vector.

    The instance's own theta is the ``ParamVector`` it was built over, viewed
    in place; it serves prediction, export and checkpoints. The binds
    take the ``unpack`` views of a theta stack and of a gradient stack
    instead, so a trainer binds its kernel work once over its own buffers
    and runs it without rebuilding the model.
    """

    kind = "abstract"
    hyper_rules: dict = {}  # each hyperparameter's ``numerics.Rule``, which ``_resolve`` checks

    def __init__(self, lookback: int, horizon: int, n_features: int,
                 hyper: dict, params: ParamVector):
        self.lookback = int(lookback)
        self.horizon = int(horizon)
        self.n_features = int(n_features)
        self.hyper = dict(hyper)
        shapes = self.segments(self.lookback, self.horizon, self.n_features, self.hyper)
        layout = tuple((name, math.prod(shape)) for name, shape, _ in shapes)
        if params.layout != layout:
            raise MergeIncompatibilityError(f"{self.kind}: the parameter layout is not this model's")
        self._views, total = [], 0
        for (name, length), (_, shape, _) in zip(layout, shapes):
            self._views.append((name, slice(total, total + length), shape))
            total += length
        self._params = params
        self._theta_views = self.unpack(params.values[None])

    # -- subclass hooks ----------------------------------------------------
    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        """Ordered (name, shape, initializer) rows; the layout follows them."""
        raise NotImplementedError

    @classmethod
    def default_hyper(cls, lookback, horizon, n_features):
        return {}

    def _buffers(self, n):
        """One row's theta-only, then its n-window call's, (forward, backward) buffer specs."""
        raise NotImplementedError

    def _bind(self, p, inputs, ws, g=None):
        """(forward, backward): the data work, functions of no arguments over these views.

        ``forward`` writes ``ws["pred"]``; ``backward`` reads the residual r
        there and writes what the data feeds of ``g`` and of the epilogue's
        inputs, as the gradient of (r . r) / 2, unscaled; None without ``g``.
        """
        raise NotImplementedError

    def bind_rows(self, p, ws, g=None):
        """(prologue, epilogue) over every row of ``p`` and a ``workspace(K)``; here none."""
        return (lambda: None), (lambda: None)

    # -- shared behaviour --------------------------------------------------
    @property
    def n_params(self) -> int:
        return len(self._params)

    def unpack(self, stack: np.ndarray) -> dict:
        """Named (K, ...) views of a (K, P) stack, one per segment."""
        return {name: stack[:, span].reshape(-1, *shape) for name, span, shape in self._views}

    def workspace(self, rows: int, n: int | None = None, backward: bool = True) -> dict:
        """Forward, plus backward, buffers of a (rows, n)-window call; without n, theta-only ones.

        A call's ``pred`` holds the prediction, then the residual; a caller
        may replace it with any (rows, n, H) view whose rows are contiguous.
        """
        forward, back, call_forward, call_back = self._buffers(n)
        if n is not None:
            forward, back = {"pred": (_F, n, self.horizon), **call_forward}, call_back
        specs = dict(forward, **back) if backward else forward
        return {name: np.empty((rows, *shape), dtype) for name, (dtype, *shape) in specs.items()}

    def bind_batch(self, p, inputs, targets, g, ws):
        """The data work of one kernel call over fixed views, as a function of no arguments.

        ``p`` and ``g`` are ``unpack`` views of (K, P) theta and gradient
        rows, inputs (K, N, ...) ``rows_read`` designs, targets (K, N, H);
        ``ws`` holds a ``workspace(K, N)``, which calls of one shape may
        share, and these rows of a ``workspace(K)``. The call returns
        ``ws["pred"]``: without ``g`` the prediction; with ``g`` the residual
        r = pred - targets, after the backward has written the unscaled
        gradient sum r * d(pred)/d(theta). The caller runs the epilogue, then
        turns r . r into the loss and scales the gradient by 2 / (N * H).
        """
        (forward, backward), pred = self._bind(p, inputs, ws, g), ws["pred"]
        if g is None:
            def predict():
                forward()
                return pred
            return predict

        def call():
            forward()
            np.subtract(pred, targets, out=pred)
            backward()
            return pred
        return call

    def bind(self, p, inputs, targets=None, g=None, ws=None):
        """One whole call: prologue, ``bind_batch`` call, epilogue, loss and gradient scale.

        ``ws`` is a ``workspace(K, N)``, fresh by default. With ``g`` the
        call returns the (K,) batch MSEs, r . r / (N * H), and writes every
        gradient coordinate, scaling each ``g`` view by 2 / (N * H);
        without, the prediction. Every row's bits are those of the K=1 call
        and of a trainer's step. It trusts the shapes and reads the inputs
        as given: (K, N, ...) ``rows_read`` designs.
        """
        k, n, backward = *inputs.shape[:2], g is not None
        ws = dict(ws or self.workspace(k, n, backward), **self.workspace(k, None, backward))
        prologue, epilogue = self.bind_rows(p, ws, g)
        call = self.bind_batch(p, inputs, targets, g, ws)
        if g is None:
            def predict():
                prologue()
                return call()
            return predict
        losses, views = np.empty(k), list(g.values())
        sum_of_squares = bind_sum_of_squares(ws["pred"].reshape(k, -1), losses)
        scale = np.array(2.0 / (n * self.horizon))  # 0-d, so that no call converts a number

        def one_off():
            prologue()
            call()
            epilogue()
            sum_of_squares()
            np.divide(losses, n * self.horizon, out=losses)
            for view in views:
                np.multiply(view, scale, out=view)
            return losses
        return one_off

    def rows_read(self, inputs):
        """The contiguous design the kernel reads of (..., L, d) windows; here the windows.

        A copy unless they are contiguous float64: one per run or predict
        of ``make_windows``'s views. The trainer keeps, shuffles and batches
        designs, and every other path passes them too.
        """
        return np.ascontiguousarray(np.asarray(inputs, dtype=np.float64))

    def _predict(self, inputs):
        """``predict_batch``: a forward-only K=1 call at this model's own theta, N >= 1 windows."""
        inputs = _check_inputs(inputs, self.lookback, self.n_features)
        return self.bind(self._theta_views, self.rows_read(inputs)[None])()[0]

    def export_params(self) -> ParamVector:
        """The parameter vector this model holds: the same object, not a copy."""
        return self._params

    def import_params(self, pvec: ParamVector) -> "ForecastModel":
        """This model's kind, shapes and hyper over ``pvec``, held as it is."""
        return type(self)(self.lookback, self.horizon, self.n_features, self.hyper, pvec)

    def loss_and_gradient(self, p, inputs, targets, g, call=None) -> np.ndarray:
        """Per-row batch MSE of a stack; its gradient goes into ``g`` (see ``bind``).

        ``call`` runs as it is and its result is returned; without one a
        fresh ``bind`` call runs. A trainer runs each of its ``bind_batch``
        calls through here, one per batch index and batch size: ``jobs``
        caps the rows of a texfilter or frets call, whose buffers grow with
        them, while a dlinear or paifilter call, which holds none, takes
        every row with a batch of that size. It leaves the prologue,
        epilogue, loss reduction and gradient scale to its step.
        """
        return (call or self.bind(p, inputs, targets, g))()


def bind_sum_of_squares(residuals, out):
    """r . r of each row of a (K, M) stack into (K,) ``out``, as a function of no arguments.

    One (K, 1, M) @ (K, M, 1) product: each row is one dot of its own M
    values, so its bits do not depend on K or on the row's place. Rows
    need only be contiguous; ``out`` may be strided.
    """
    rows, cols, sums = residuals[:, None], residuals[..., None], out[:, None, None]
    return lambda: np.matmul(rows, cols, out=sums)


def _t(a):
    """Transpose the trailing matrix of every row of a stack."""
    return a.swapaxes(-1, -2)


def _mix(inputs, p, z):
    """Views for z = inputs @ input_mix into ``z`` (K, N, L): flat inputs, mix, flat z."""
    k, n, lookback, d = inputs.shape
    return (inputs.reshape(k, n * lookback, d), p["input_mix"][:, :, None],
            z.reshape(k, n * lookback, 1))


def _affine_bound(fan_in: int) -> float:
    return 1.0 / math.sqrt(fan_in)  # np.sqrt has no loop for ints of 2**64 and up


def _uniform(bound):
    """Initializer drawing uniformly from [-bound, bound]."""
    return lambda rng, n: rng.uniform(-bound, bound, size=n)


def _normal(scale, mean=0.0):
    """Initializer drawing mean + scale * N(0, 1); ``mean`` may be an array of n."""
    return lambda rng, n: mean + scale * rng.standard_normal(n)


def _pairs(init):
    """Initializer drawing ``init``'s real block, then its imaginary block, as (re, im) pairs."""
    return lambda rng, n: init(rng, n).reshape(2, -1).T.reshape(-1)


def _complex(pairs):
    """The complex128 view of a (..., 2) array of (re, im) pairs."""
    return pairs.view(_C)[..., 0]


class _Affine:
    """Mixin of a kind whose forecast is affine in the window once theta is fixed.

    The design is what the kernel reads of a window (``_read``), flat,
    then a one. The prologue builds each row's (D, H) weight block W in
    ``ws["w"]``, whose last row holds the constant terms, so a data call is
    one product each way: ``pred = X @ W``, and ``gW = X^T @ r`` of the
    residual r into ``ws["g_w"]``, which the epilogue folds back into the
    segments. It comes before ``ForecastModel`` in a kind's bases, so the
    kind stays a direct subclass of ``ForecastModel``, whose own
    ``predict_batch`` the traced benchmark wraps.
    """

    def rows_read(self, inputs):
        """``_read``'s (..., a, b) view of (..., L, d) windows, each (a, b) flat, then a one."""
        read = self._read(np.asarray(inputs, dtype=np.float64))
        design = np.empty((*read.shape[:-2], read.shape[-2] * read.shape[-1] + 1))
        design[..., -1] = 1.0
        design[..., :-1].reshape(read.shape)[...] = read  # splitting one axis is always a view
        return design

    def _bind(self, p, inputs, ws, g=None):
        x, w, pred = inputs.reshape(*inputs.shape[:2], -1), ws["w"], ws["pred"]

        def forward():
            np.matmul(x, w, out=pred)
        if g is None:
            return forward, None
        x_t, g_w = _t(x), ws["g_w"]

        def backward():
            np.matmul(x_t, pred, out=g_w)
        return forward, backward


# ---------------------------------------------------------------------------
# dlinear
# ---------------------------------------------------------------------------

class DLinearModel(_Affine, ForecastModel):
    """Trend + Fourier seasonal curve over forecast steps, plus anchor.

    The trend slope acts on time measured in lookback units (t/L); the
    raw step index would put the slope's curvature two orders of
    magnitude above every other coordinate and destabilize SGD at the
    shared learning rate. Harmonics stay on raw steps so the seasonal
    period is expressed in rows.

    The anchor reads the window's last row alone, so the design is
    ``[last row, 1]``, (N, 1, d + 1). W holds the input mix in every
    column (zeros without the anchor), then the curve ``basis @ coef``.
    """

    kind = "dlinear"
    hyper_rules = {"harmonics": _WIDTH, "period": POSITIVE, "use_anchor": BOOLEAN}

    def __init__(self, lookback, horizon, n_features, hyper, params):
        super().__init__(lookback, horizon, n_features, hyper, params)
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
        period = check("dlinear: lookback as the default period", POSITIVE, lookback)
        return {"harmonics": 3, "period": period, "use_anchor": True}

    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        k = hyper["harmonics"]
        init = _uniform(_affine_bound(2 + 2 * k + n_features))
        return (
            ("coef", (2 + 2 * k,), init),  # trend slope and intercept, then k cos, then k sin
            ("input_mix", (n_features,), init),
        )

    @staticmethod
    def _read(inputs):
        return inputs[..., -1:, None, :]  # one (1, d) block per design row

    def _buffers(self, n):
        shape = (_F, self.n_features + 1, self.horizon)
        return {"w": shape}, {"g_w": shape}, {}, {}

    def bind_rows(self, p, ws, g=None):
        d, anchor, basis = self.n_features, self.hyper["use_anchor"], self._basis
        w_mix, w_curve, mix = ws["w"][:, :d], ws["w"][:, d:], p["input_mix"][..., None]
        coef, basis_t = p["coef"][:, None], basis.T

        def prologue():
            if anchor:
                np.copyto(w_mix, mix)  # broadcast over h
            else:
                w_mix[...] = 0.0
            np.matmul(coef, basis_t, out=w_curve)  # (K, 1, H)
        if g is None:
            return prologue, None
        g_w_mix, g_w_curve = ws["g_w"][:, :d], ws["g_w"][:, d:]
        g_mix, g_coef = g["input_mix"], g["coef"][:, None]

        def epilogue():
            np.matmul(g_w_curve, basis, out=g_coef)
            if anchor:
                np.add.reduce(g_w_mix, axis=2, out=g_mix)
            else:
                g_mix[...] = 0.0
        return prologue, epilogue

    def predict_batch(self, inputs):
        return self._predict(inputs)


# ---------------------------------------------------------------------------
# paifilter
# ---------------------------------------------------------------------------

def _circulant(c2):
    """The read-only (K, L, L) view G[t, u] = c[(u - t) mod L] of (K, 1, 2L) rows [c | c]."""
    lookback = c2.shape[-1] // 2
    return np.lib.stride_tricks.sliding_window_view(c2[:, 0], lookback, axis=-1)[:, lookback:0:-1]


class PaiFilterModel(_Affine, ForecastModel):
    """Static learnable complex kernel on the window spectrum.

    Re IDFT(k * DFT(z)) is a circular convolution of z with the real taps
    c = [k_re | k_im] @ B, B = [C; -E] / L (the convolution theorem): z @ G
    with G[t, u] = c[(u - t) mod L]. The prologue builds the taps and
    v = G @ W^T once per row and step; as z is the window times the input
    mix, the forecast is affine in the window. The design is the window
    flattened feature by feature (the d series of L values, one after
    another), then a one: (N, L*d + 1). W holds ``mix_j * v`` in feature
    j's L rows, then the head bias. G and the Hankel form of W are views
    of the taps and of W^T, each written twice, so no buffer grows with
    L^2. Results differ from the DFT chain by rounding alone.
    """

    kind = "paifilter"

    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        head = _uniform(_affine_bound(lookback))
        return (
            ("kernel", (2 * lookback,), _normal(0.01, mean=np.repeat([1.0, 0.0], lookback))),
            ("head_weight", (horizon, lookback), head),
            ("head_bias", (horizon,), head),
            ("input_mix", (n_features,), _uniform(_affine_bound(n_features))),
        )

    @staticmethod
    def _read(inputs):
        return _t(inputs)

    def _buffers(self, n):
        """One row's taps [c | c], W^T twice, v and W; then gW, dv and the taps' gradient."""
        L, h, rows = self.lookback, self.horizon, self.lookback * self.n_features + 1
        return ({"c2": (_F, 1, 2 * L), "w2": (_F, 2 * L, h), "v": (_F, L, h), "w": (_F, rows, h)},
                {"g_w": (_F, rows, h), "dv": (_F, L, h), "g_c": (_F, L)}, {}, {})

    def bind_rows(self, p, ws, g=None):
        k, L, d = len(p["kernel"]), self.lookback, self.n_features
        f_op, b_op = numerics.planar_dft_operators(L)
        doubled, basis_t = np.concatenate([b_op, b_op], axis=1), f_op / L  # [B | B], B^T
        c2, w2, v, w = ws["c2"], ws["w2"], ws["v"], ws["w"]
        # (K, 1, 2L) products keep each row's taps bit-identical to K=1
        kernel, taps, circulant = p["kernel"][:, None], c2[..., :L], _circulant(c2)
        weight_t, w2_halves = _t(p["head_weight"])[:, None], w2.reshape(k, 2, L, -1)
        # the read-only (K, L, L*H) view hankel[s, t*H + h] = W[h, (s + t) mod L] of W^T twice
        hankel = np.lib.stride_tricks.sliding_window_view(
            w2.reshape(k, -1), L * self.horizon, axis=-1)[:, : L * self.horizon : self.horizon]
        mix, v_rows, v_row = p["input_mix"][..., None, None], v[:, None], v.reshape(k, 1, -1)
        w_series, w_bias, bias = w[:, :-1].reshape(k, d, L, -1), w[:, -1], p["head_bias"]

        def prologue():
            np.matmul(kernel, doubled, out=c2)
            np.copyto(w2_halves, weight_t)
            np.matmul(taps, hankel, out=v_row)  # v = G @ W^T, (K, L, H)
            np.multiply(mix, v_rows, out=w_series)
            np.copyto(w_bias, bias)
        if g is None:
            return prologue, None
        dv, g_c = ws["dv"], ws["g_c"]
        g_w_series, g_w_bias = ws["g_w"][:, :-1].reshape(k, d, -1), ws["g_w"][:, -1]
        mix_row, v_col, dv_row = p["input_mix"][:, None], v.reshape(k, -1, 1), dv.reshape(k, 1, -1)
        dv_t, dv_col, g_c_col, g_c_row = _t(dv), dv.reshape(k, -1, 1), g_c[..., None], g_c[:, None]
        g_weight, g_bias, g_kernel = g["head_weight"], g["head_bias"], g["kernel"][:, None]
        g_mix = g["input_mix"][..., None]

        def epilogue():
            np.copyto(g_bias, g_w_bias)
            np.matmul(mix_row, g_w_series, out=dv_row)  # dv = sum_j mix_j gW_j
            np.matmul(g_w_series, v_col, out=g_mix)  # d mix_j = <gW_j, v>
            np.matmul(dv_t, circulant, out=g_weight)
            np.matmul(hankel, dv_col, out=g_c_col)  # d c_s = sum dv[t, h] W[h, (s + t) mod L]
            np.matmul(g_c_row, basis_t, out=g_kernel)
        return prologue, epilogue

    def predict_batch(self, inputs):
        return self._predict(inputs)


# ---------------------------------------------------------------------------
# texfilter
# ---------------------------------------------------------------------------

class TexFilterModel(ForecastModel):
    """Kernel conditioned on the input spectrum, from a complex one-hidden-layer net.

    The kernel-producing output layer starts at the identity filter
    (bias re=1) with 0.01-scale weights so the untrained filter is
    near-pass-through; the hidden affine uses the standard fan-in rule.
    The complex weights are segments of (re, im) pairs, which the kernel
    reads and writes in place as complex128 views: a complex product is one
    call, not four real matmuls and two adds. The backward pass carries
    dl/dRe + i dl/dIm of the real loss, which y = x w sends back as
    dy * conj(w); the prologue only conjugates w1 and w2 for it.
    """

    kind = "texfilter"
    hyper_rules = {"hidden": _WIDTH}

    @classmethod
    def default_hyper(cls, lookback, horizon, n_features):
        return {"hidden": lookback}

    @classmethod
    def segments(cls, lookback, horizon, n_features, hyper):
        m, L = hyper["hidden"], lookback
        hidden, small = _uniform(_affine_bound(L)), _normal(0.01)
        return (
            ("filter_w1", (m, L, 2), _pairs(hidden)),
            ("filter_b1", (m, 2), _pairs(hidden)),
            ("filter_gate_bias", (m,), small),
            ("filter_w2", (L, m, 2), _pairs(small)),
            ("filter_b2", (L, 2), _pairs(_normal(0.01, mean=np.repeat([1.0, 0.0], L)))),
            ("head_weight", (horizon, L), hidden),
            ("head_bias", (horizon,), hidden),
            ("input_mix", (n_features,), _uniform(_affine_bound(n_features))),
        )

    def _buffers(self, n):
        """The conjugate weights the backward pass reads, then the (n, .) temporaries.

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
        return {}, {"w1_conj": (_C, m, L), "w2_conj": (_C, L, m)}, forward, backward

    def bind_rows(self, p, ws, g=None):
        if g is None:
            return super().bind_rows(p, ws)
        conjugates = [(_complex(p["filter_" + name]), ws[name + "_conj"]) for name in ("w1", "w2")]

        def prologue():
            for w, w_conj in conjugates:
                np.conjugate(w, out=w_conj)
        return prologue, (lambda: None)

    def _bind(self, p, inputs, ws, g=None):
        d_op, r_op = numerics.interleaved_dft_operators(self.lookback)
        flat, mix, z_flat = _mix(inputs, p, ws["z"])
        z, s, u, r, shifted, active, inv, scale, a, k, ks, filtered, pred = (
            ws[name] for name in ("z", "s", "u", "r", "shifted", "active", "inv", "scale", "a",
                                  "k", "ks", "filtered", "pred"))
        w1, w2, b1, b2 = (_complex(p["filter_" + name]) for name in ("w1", "w2", "b1", "b2"))
        w1_t, w2_t, b1, b2 = _t(w1), _t(w2), b1[:, None], b2[:, None]
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
        s_conj, dk, ds, conj, da, du, w1_conj, w2_conj = (
            ws[name] for name in ("s_conj", "dk", "ds", "conj", "da", "du", "w1_conj", "w2_conj"))
        dw1, dw2, db1, db2 = (_complex(g["filter_" + name]) for name in ("w1", "w2", "b1", "b2"))
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
    """Separate tanh MLPs on the real and imaginary spectrum parts.

    Spectra and their cotangents are planar (n, 2L) rows [re | im], and
    each MLP reads and writes its half as a view. So each transform is one
    product with the ``numerics.planar_dft_operators`` pair (F, B): z @ F
    and x @ B forward, drecon @ B^T and ds @ F^T backward.
    """

    kind = "frets"
    hyper_rules = {"hidden": _WIDTH}

    @classmethod
    def default_hyper(cls, lookback, horizon, n_features):
        return {"hidden": lookback}

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
        forward = {"z": (_F, n, L), "s": (_F, n, 2 * L), "pre": (_F, n, m), "h_re": (_F, n, m),
                   "h_im": (_F, n, m), "x": (_F, n, 2 * L), "recon": (_F, n, L)}
        backward = {"drecon": (_F, n, L), "dx": (_F, n, 2 * L), "ds": (_F, n, 2 * L),
                    "du": (_F, n, m), "dtanh": (_F, n, m)}
        return {}, {}, forward, backward

    def _bind(self, p, inputs, ws, g=None):
        L = self.lookback
        f_op, b_op = numerics.planar_dft_operators(L)
        flat, mix, z_flat = _mix(inputs, p, ws["z"])
        z, s, pre, x, recon, pred = (ws[name] for name in ("z", "s", "pre", "x", "recon", "pred"))
        parts = ("re", slice(None, L)), ("im", slice(L, None))  # the halves of planar rows
        halves = [(s[..., cut], _t(p[part + "_w1"]), p[part + "_b1"][:, None], ws["h_" + part],
                   _t(p[part + "_w2"]), p[part + "_b2"][:, None], x[..., cut])
                  for part, cut in parts]
        weight_t, bias = _t(p["head_weight"]), p["head_bias"][:, None]

        def forward():
            np.matmul(flat, mix, out=z_flat)
            np.matmul(z, f_op, out=s)
            for s_half, w1_t, b1, h, w2_t, b2, x_half in halves:
                np.tanh(np.add(np.matmul(s_half, w1_t, out=pre), b1, out=pre), out=h)
                np.add(np.matmul(h, w2_t, out=x_half), b2, out=x_half)
            np.matmul(x, b_op, out=recon)
            np.add(np.matmul(recon, weight_t, out=pred), bias, out=pred)
        if g is None:
            return forward, None
        drecon, dx, du, dtanh, ds = (ws[name] for name in ("drecon", "dx", "du", "dtanh", "ds"))
        paths = [(dx[..., cut], _t(dx[..., cut]), ws["h_" + part], p[part + "_w2"],
                  g[part + "_w2"], g[part + "_b2"], s[..., cut], p[part + "_w1"],
                  g[part + "_w1"], g[part + "_b1"], ds[..., cut]) for part, cut in parts]
        pred_t, weight, du_t, b_t, f_t = _t(pred), p["head_weight"], _t(du), b_op.T, f_op.T
        g_weight, g_bias = g["head_weight"], g["head_bias"]
        dz_row, g_mix = drecon.reshape(len(z), 1, -1), g["input_mix"][:, None]

        def backward():
            np.matmul(pred_t, recon, out=g_weight)
            np.add.reduce(pred, axis=1, out=g_bias)
            np.matmul(pred, weight, out=drecon)
            np.matmul(drecon, b_t, out=dx)
            for dx_half, dx_t, h, w2, g_w2, g_b2, s_half, w1, g_w1, g_b1, ds_half in paths:
                np.matmul(dx_t, h, out=g_w2)
                np.add.reduce(dx_half, axis=1, out=g_b2)
                np.matmul(dx_half, w2, out=du)
                np.subtract(1.0, np.multiply(h, h, out=dtanh), out=dtanh)
                np.multiply(du, dtanh, out=du)
                np.matmul(du_t, s_half, out=g_w1)
                np.add.reduce(du, axis=1, out=g_b1)
                np.matmul(du, w1, out=ds_half)
            np.matmul(ds, f_t, out=drecon)  # dz; drecon is dead by then
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
    shapes = (check("lookback", LOOKBACK, lookback), check("horizon", HORIZON, horizon),
              check("feature count", integer(2, 3), n_features))
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
    return cls, shapes, {name: check(f"{kind}: {name}", rule, resolved[name])
                         for name, rule in cls.hyper_rules.items()}


def build_model(kind: str, lookback: int, horizon: int, n_features: int,
                hyper: dict | None = None, seed: int = 0) -> ForecastModel:
    """Construct a seeded model; layout depends only on the arguments."""
    cls, shapes, resolved = _resolve(kind, lookback, horizon, n_features, hyper or {})
    seed = check("seed", SEED, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, MODEL_KINDS.index(kind))))
    layout, draws = [], []
    try:
        for name, shape, init in cls.segments(*shapes, resolved):
            layout.append((name, math.prod(shape)))
            draws.append(init(rng, layout[-1][1]))
        values = np.concatenate(draws)
    except (ValueError, MemoryError, OverflowError) as err:  # too many for numpy or a float
        raise ContractViolation(f"{kind}: the parameters of {shown(resolved)} are too many to "
                                f"allocate: {err}") from None
    return cls(*shapes, resolved, ParamVector(values, layout))


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
        return cls(*shapes, hyper, pvec)
    except (CstiError, TypeError, OverflowError) as err:  # an unhashable kind; a huge width
        raise ContractViolation(f"{path}: {err}") from None
