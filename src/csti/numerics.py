"""Mathematical substrate: parameter vectors and their file container, DFT pair, gradients, SGD.

The discrete Fourier transform is an explicit linear operator (cos/sin
matrices), so the frequency models backpropagate through it with plain
transposes; at lookbacks <= 64 the O(n^2) product beats FFT bookkeeping.
Cached forms: ``filter_operator_basis`` (2n, n^2) folds a static filter into
one real n x n operator (16 n^3 bytes: 64 KiB at n=16, 4 MiB at n=64), and
``interleaved_dft_operators`` D (n, 2n), R (2n, n) move complex128 spectra
as (re, im) pairs through one real gemm each way (32 n^2 bytes, 8 KiB at n=16).

Parameter files (bare vectors, model checkpoints, merge rounds) are one
container: magic b"CSTI", u32 version 2, u32 header length, a sorted-key
UTF-8 JSON header, u64 value count, little-endian float64 values, and a
CRC-32 (``zlib.crc32``) of every byte before it; integers are little-endian.
The header holds ``type`` (params, checkpoint or round), ``layout`` as
[[name, length], ...] and that type's fields. The reader checks magic,
version, every length (the file ends right after the CRC) and the CRC
before it parses or allocates, then the type and its exact key set. Any
failure, version-1 files included, raises ``ContractViolation`` naming the file.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    ContractViolation,
    CstiError,
    MergeIncompatibilityError,
    NumericInputError,
    NumericOverflowError,
    ShapeMismatchError,
    SymmetryViolationError,
)

IDFT_IMAG_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    name: str
    offset: int
    length: int


class ParamVector:
    """Flat float64 parameter vector with a named segment layout.

    Two vectors are merge-compatible iff their layouts are identical.
    Instances are immutable; algebra returns new vectors.
    """

    __slots__ = ("values", "layout")

    def __init__(self, values, layout: Sequence[Segment]):
        arr = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        layout = tuple(layout)
        expected = 0
        for seg in layout:
            if seg.offset != expected:
                raise ContractViolation(
                    f"segment {seg.name!r} at offset {seg.offset}, expected {expected}"
                )
            expected += seg.length
        if expected != arr.size:
            raise ContractViolation(
                f"layout covers {expected} values, vector has {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise NumericInputError("parameter vector contains non-finite values")
        arr.flags.writeable = False
        self.values = arr
        self.layout = layout

    def __len__(self):
        return self.values.size

    def __repr__(self):
        names = ",".join(s.name for s in self.layout)
        return f"ParamVector(n={len(self)}, segments=[{names}])"

    def segment(self, name: str) -> np.ndarray:
        for seg in self.layout:
            if seg.name == name:
                return self.values[seg.offset : seg.offset + seg.length]
        raise KeyError(name)

    def same_layout(self, other: "ParamVector") -> bool:
        return self.layout == other.layout

    def replace(self, values) -> "ParamVector":
        return ParamVector(values, self.layout)


def layout_from_lengths(pairs: Sequence[tuple[str, int]]) -> tuple[Segment, ...]:
    """Build a contiguous layout from (name, length) pairs."""
    segs = []
    offset = 0
    for name, length in pairs:
        segs.append(Segment(name, offset, int(length)))
        offset += int(length)
    return tuple(segs)


def _first_layout_difference(a: ParamVector, b: ParamVector) -> str:
    for sa, sb in zip(a.layout, b.layout):
        if sa != sb:
            return sa.name
    if len(a.layout) != len(b.layout):
        longer = a.layout if len(a.layout) > len(b.layout) else b.layout
        return longer[min(len(a.layout), len(b.layout))].name
    return "<none>"


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e == a + b exactly (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def fsum_columns(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every column of a (K, n) array, bit for bit.

    Cascaded TwoSum leaves s and errors e_k with s + sum(e_k) exact. r =
    fl(s + c), c the float sum of the e_k, is correctly rounded when the
    remainder (s + c - r) + (sum(e_k) - c), with |sum(e_k) - c| <= K * eps
    * sum|e_k|, lies strictly inside half the gap to r's neighbour on each
    side (the gaps differ at powers of two). Other columns, zero sums
    (fsum decides the sign) and non-finite ones go to ``math.fsum``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = rows[0]
        c = np.zeros_like(s)
        magnitude = np.zeros_like(s)
        for row in rows[1:]:
            s, e = _two_sum(s, row)
            c += e
            magnitude += np.abs(e)
        r, rest = _two_sum(s, c)
        bound = magnitude * (rows.shape[0] * np.finfo(np.float64).eps)
        up = np.nextafter(r, np.inf) - r
        down = r - np.nextafter(r, -np.inf)
        exact = (rest + bound < 0.5 * up) & (rest - bound > -0.5 * down) & (r != 0.0)
    for i in np.flatnonzero(~exact):
        r[i] = math.fsum(rows[:, i])
    return r


def axpy_merge(vectors: Sequence[ParamVector], weights: Sequence[float]) -> ParamVector:
    """Merge K parameter vectors into (1/K) * sum_k w_k * theta_k.

    Coordinate i is math.fsum(w_k * theta_k[i] for k) / K, correctly
    rounded and so independent of the order of the inputs; K equal
    weighted vectors merge to that vector itself.
    """
    if len(vectors) == 0 or len(vectors) != len(weights):
        raise ContractViolation("need K >= 1 vectors and exactly K weights")
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericInputError("merge weights must be finite")
    base = vectors[0]
    for v in vectors[1:]:
        if not base.same_layout(v):
            raise MergeIncompatibilityError(
                f"layouts differ at segment {_first_layout_difference(base, v)!r}"
            )
    if len(vectors) == 1:
        return base.replace(w[0] * base.values)
    products = np.stack([wk * vk.values for wk, vk in zip(w, vectors)])
    bits = products.view(np.uint64)  # bitwise, so +0.0 and -0.0 differ
    if np.all(bits == bits[0]):
        # consensus: the mean of K identical vectors is that vector, exactly
        return base.replace(products[0])
    return base.replace(fsum_columns(products) / len(vectors))


# ---------------------------------------------------------------------------
# spectra and the DFT pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Complex spectrum stored as separate real/imag float64 arrays."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.float64).reshape(-1)
        im = np.asarray(self.im, dtype=np.float64).reshape(-1)
        if re.size != im.size or re.size < 1:
            raise ShapeMismatchError("re and im must have equal length n >= 1")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __len__(self):
        return self.re.size


@lru_cache(maxsize=None)
def dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin matrices C, E with DFT(x) = C @ x - i * (E @ x)."""
    t = np.arange(n)
    angles = 2.0 * np.pi * np.outer(t, t) / n
    c = np.cos(angles)
    e = np.sin(angles)
    c.flags.writeable = False
    e.flags.writeable = False
    return c, e


@lru_cache(maxsize=None)
def filter_operator_basis(n: int) -> np.ndarray:
    """(2n, n*n) T with Re IDFT(k * DFT(z)) = z @ ([k_re | k_im] @ T).reshape(n, n)."""
    c, e = dft_matrices(n)
    ct, et, cu, eu = c[:, :, None], e[:, :, None], c[:, None, :], e[:, None, :]
    # row f, column t*n + u: k_re's share of G[t, u]; row n + f: k_im's share
    basis = np.concatenate([ct * cu + et * eu, et * cu - ct * eu]).reshape(2 * n, n * n) / n
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=None)
def interleaved_dft_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """D (n, 2n) and R (2n, n) over complex128 spectra kept as (re, im) pairs.

    ``(z @ D).view(complex128)`` is DFT(z) and ``y.view(float64) @ R`` is
    Re IDFT(y). Column 2f of D holds C[f], column 2f+1 holds -E[f]; R = D^T/n.
    """
    c, e = dft_matrices(n)
    d = np.stack([c, -e], axis=-1).reshape(n, 2 * n)  # C, E are symmetric
    r = np.ascontiguousarray(d.T) / n
    d.flags.writeable = r.flags.writeable = False
    return d, r


def dft(signal) -> Spectrum:
    """X(f) = sum_t x(t) * (cos(2*pi*f*t/n) - i*sin(2*pi*f*t/n))."""
    x = np.asarray(signal, dtype=np.float64).reshape(-1)
    if x.size < 1:
        raise ContractViolation("signal must have length >= 1")
    if not np.all(np.isfinite(x)):
        raise NumericInputError("signal contains non-finite values")
    re, im = dft_batch(x[None])
    return Spectrum(re=re[0], im=im[0])


def idft(spectrum: Spectrum) -> np.ndarray:
    """Inverse transform; rejects spectra whose inverse is not real.

    x(t) = (1/n) * sum_f (re + i*im) * e^{+i 2 pi f t / n}. The imaginary
    residue must stay below IDFT_IMAG_TOLERANCE (conjugate-symmetric input).
    """
    re, im = spectrum.re[None], spectrum.im[None]
    # the cos/sin matrices are symmetric, so the imaginary part is the
    # real part of the inverse transform of i * spectrum = (-im, re)
    imag = real_idft_batch(im, -re)[0]
    worst = float(np.max(np.abs(imag)))
    if worst >= IDFT_IMAG_TOLERANCE:
        raise SymmetryViolationError(
            f"imaginary residue {worst:.3e} >= {IDFT_IMAG_TOLERANCE:.0e}; "
            "spectrum is not conjugate-symmetric"
        )
    return real_idft_batch(re, im)[0]


def complex_hadamard(a: Spectrum, b: Spectrum) -> Spectrum:
    """Elementwise complex product of two spectra."""
    if len(a) != len(b):
        raise ShapeMismatchError(f"length mismatch: {len(a)} vs {len(b)}")
    return Spectrum(
        re=a.re * b.re - a.im * b.im,
        im=a.re * b.im + a.im * b.re,
    )


# Batch helpers used by the model zoo. Signals sit in the last axis; the
# adjoints are the exact transposes of the forward maps, which keeps the
# analytic gradients finite-difference-checkable.

def dft_batch(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., n) real signals -> (S_re, S_im), each (..., n)."""
    c, e = dft_matrices(z.shape[-1])
    return z @ c.T, -(z @ e.T)


def dft_batch_adjoint(d_re: np.ndarray, d_im: np.ndarray) -> np.ndarray:
    c, e = dft_matrices(d_re.shape[-1])
    return d_re @ c - d_im @ e


def real_idft_batch(f_re: np.ndarray, f_im: np.ndarray) -> np.ndarray:
    """Real part of the inverse transform of (..., n) spectra."""
    n = f_re.shape[-1]
    c, e = dft_matrices(n)
    return (f_re @ c - f_im @ e) / n


def real_idft_batch_adjoint(ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = ds.shape[-1]
    c, e = dft_matrices(n)
    return (ds @ c.T) / n, -(ds @ e.T) / n


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def gradient(model, inputs: np.ndarray, targets: np.ndarray) -> ParamVector:
    """Analytic gradient of the batch MSE w.r.t. the model parameters.

    Delegates to the model's hand-derived reverse pass and verifies the
    result is finite, naming the first offending segment otherwise.
    """
    if inputs.shape[0] == 0:
        raise ContractViolation("batch must be non-empty")
    grad = model.loss_gradient(inputs, targets)
    if not np.all(np.isfinite(grad.values)):
        for seg in grad.layout:
            chunk = grad.values[seg.offset : seg.offset + seg.length]
            if not np.all(np.isfinite(chunk)):
                raise NumericOverflowError(
                    f"non-finite gradient in segment {seg.name!r}"
                )
    return grad


def finite_diff_gradient(model, inputs, targets, epsilon: float = 1e-5) -> ParamVector:
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


def gradient_check_max_error(model, inputs, targets, epsilon: float = 1e-5) -> float:
    """Max-coordinate guarded relative error between analytic and FD gradients.

    Denominator floors at 1e-3 so near-zero coordinates are compared
    absolutely at 1e-7 scale rather than amplifying FD noise.
    """
    ga = gradient(model, inputs, targets).values
    gf = finite_diff_gradient(model, inputs, targets, epsilon).values
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), 1e-3)
    return float(np.max(np.abs(ga - gf) / denom)) if ga.size else 0.0


# ---------------------------------------------------------------------------
# SGD with classical momentum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerState:
    """Velocity buffer plus step settings; owned by exactly one trainer."""

    velocity: ParamVector
    learning_rate: float
    momentum: float

    def __post_init__(self):
        check_step_settings(self.learning_rate, self.momentum)


def check_step_settings(learning_rate: float, momentum: float) -> None:
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ContractViolation("learning rate must be finite and > 0")
    if not (0.0 <= momentum < 1.0):
        raise ContractViolation("momentum must lie in [0, 1)")


def fresh_optimizer_state(params: ParamVector, learning_rate: float, momentum: float) -> OptimizerState:
    return OptimizerState(
        velocity=params.replace(np.zeros(len(params))),
        learning_rate=learning_rate,
        momentum=momentum,
    )


def momentum_step(theta: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
                  learning_rate: float, momentum: float) -> None:
    """In place: v <- mu*v + g; theta <- theta - eta*v (classical momentum)."""
    velocity *= momentum
    velocity += grad
    theta -= learning_rate * velocity


def sgd_step(params: ParamVector, grad: ParamVector, state: OptimizerState) -> tuple[ParamVector, OptimizerState]:
    """One ``momentum_step`` on immutable vectors; returns new ones."""
    if not (params.same_layout(grad) and params.same_layout(state.velocity)):
        raise ShapeMismatchError("params/grad/velocity layouts differ")
    theta = params.values.copy()
    v = state.velocity.values.copy()
    momentum_step(theta, v, grad.values, state.learning_rate, state.momentum)
    new_state = OptimizerState(
        velocity=params.replace(v),
        learning_rate=state.learning_rate,
        momentum=state.momentum,
    )
    return params.replace(theta), new_state


# ---------------------------------------------------------------------------
# the binary container
# ---------------------------------------------------------------------------

_MAGIC, _VERSION = b"CSTI", 2
_PREFIX = struct.Struct("<4sII")  # magic, version, header bytes
_COUNT = struct.Struct("<Q")  # payload values
_CRC = struct.Struct("<I")


def save_container(path, blob_type: str, pvec: ParamVector, **fields) -> None:
    """Write ``pvec`` as a ``blob_type`` container with the JSON ``fields`` in its header."""
    header = dict(fields, type=blob_type, layout=[[s.name, s.length] for s in pvec.layout])
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([_PREFIX.pack(_MAGIC, _VERSION, len(text)), text,
                     _COUNT.pack(len(pvec)), pvec.values.astype("<f8").tobytes()])
    with open(path, "wb") as fh:
        fh.write(body + _CRC.pack(zlib.crc32(body)))


def load_container(path, blob_type: str, fields: Sequence[str] = ()) -> tuple[dict, ParamVector]:
    """(header, vector) of a ``blob_type`` container.

    The header must hold exactly type, layout and ``fields``. Any bad file
    raises ``ContractViolation`` naming ``path``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def check(ok, problem):
        if not ok:
            raise ContractViolation(f"{path}: {problem}")

    check(len(blob) >= _PREFIX.size + _COUNT.size + _CRC.size, f"{len(blob)} bytes is too short")
    magic, version, header_bytes = _PREFIX.unpack_from(blob)
    check(magic == _MAGIC, "not a csti container (format version 1 files are not read)")
    check(version == _VERSION, f"unsupported container version {version}")
    count_at = _PREFIX.size + header_bytes
    check(len(blob) >= count_at + _COUNT.size + _CRC.size, "container truncated in its header")
    (count,) = _COUNT.unpack_from(blob, count_at)
    end = count_at + _COUNT.size + 8 * count
    check(len(blob) == end + _CRC.size, f"{len(blob)} bytes, its lengths give {end + _CRC.size}")
    check(zlib.crc32(memoryview(blob)[:end]) == _CRC.unpack_from(blob, end)[0], "checksum mismatch")
    try:
        header = json.loads(blob[_PREFIX.size : count_at].decode("utf-8"))
    except ValueError as err:  # UTF-8 and JSON errors
        raise ContractViolation(f"{path}: container header is not UTF-8 JSON: {err}") from None
    check(isinstance(header, dict), "container header is not a JSON object")
    check(header.get("type") == blob_type, f"a {header.get('type')!r} blob, not {blob_type!r}")
    check(set(header) == {"type", "layout", *fields}, f"header keys are not the {blob_type} keys")
    layout = header["layout"]
    check(isinstance(layout, list) and all(
        isinstance(seg, list) and len(seg) == 2 and isinstance(seg[0], str)
        and type(seg[1]) is int and seg[1] >= 0 for seg in layout), "malformed layout")
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=count_at + _COUNT.size)
    try:
        return header, ParamVector(values, layout_from_lengths(layout))
    except CstiError as err:
        raise ContractViolation(f"{path}: {err}") from None


def save_param_vector(pvec: ParamVector, path) -> None:
    """Write ``pvec`` as a ``params`` container (see the module docstring)."""
    save_container(path, "params", pvec)


def load_param_vector(path) -> ParamVector:
    """Read a ``save_param_vector`` file; any bad file raises ``ContractViolation`` naming it."""
    return load_container(path, "params")[1]
