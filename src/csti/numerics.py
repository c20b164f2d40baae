"""Mathematical substrate: parameter vectors, their merge and file container, DFT operators, SGD.

The discrete Fourier transform is an explicit linear operator (cos/sin
matrices, ``dft_matrices``), so the frequency models backpropagate through
it with plain transposes; at lookbacks <= 64 the O(n^2) product beats FFT
bookkeeping. The kinds bind two cached forms: ``filter_operator_basis``
(2n, n^2) folds a static filter into one real n x n operator (16 n^3 bytes:
64 KiB at n=16, 4 MiB at n=64), and ``interleaved_dft_operators`` D (n, 2n),
R (2n, n) move complex128 spectra as (re, im) pairs through one real gemm
each way (32 n^2 bytes, 8 KiB at n=16).

Model checkpoints and merge rounds are one container: magic b"CSTI", u32
version 2, u32 header length, a sorted-key UTF-8 JSON header, u64 value
count, little-endian float64 values, and a CRC-32 (``zlib.crc32``) of every
byte before it; integers are little-endian. The header holds ``type``
(checkpoint or round), the vector's layout, its (name, length) segment pairs,
as ``layout`` [[name, length], ...], and that type's fields. The reader checks
magic, version, every length (the file ends right after the CRC) and the CRC
before it parses or allocates, then the type, its exact key set and, through
``ParamVector``, the layout. Any failure, version-1 files included, raises
``ContractViolation`` naming the file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from contextlib import contextmanager, suppress
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContractViolation, CstiError, NumericInputError


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------

class ParamVector:
    """Flat float64 values and their layout: (name, length) pairs of consecutive segments.

    Two vectors fit the same model iff their layouts are identical.
    Instances are immutable; algebra returns new vectors.
    """

    __slots__ = ("values", "layout")

    def __init__(self, values, layout: Sequence[tuple[str, int]]):
        arr = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        if not isinstance(layout, (list, tuple)) or not all(
                isinstance(seg, (list, tuple)) and len(seg) == 2 and isinstance(seg[0], str)
                for seg in layout):
            raise ContractViolation("a layout must be a list of (name, length) pairs")
        layout = tuple((name, _check_int(f"segment {name!r} length", length, 0))
                       for name, length in layout)
        total = sum(length for _, length in layout)
        if total != arr.size:
            raise ContractViolation(f"layout covers {total} values, vector has {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise NumericInputError("parameter vector contains non-finite values")
        arr.flags.writeable = False
        self.values = arr
        self.layout = layout

    def __len__(self):
        return self.values.size

    def __repr__(self):
        names = ",".join(name for name, _ in self.layout)
        return f"ParamVector(n={len(self)}, segments=[{names}])"

    def replace(self, values) -> "ParamVector":
        return ParamVector(values, self.layout)


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


def axpy_merge(rows: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Merge the (K, P) row stack into its weighted mean, a fresh (P,) array.

    Coordinate i is math.fsum(w_k * rows[k, i] for k) / math.fsum(w), two
    correctly rounded sums and so independent of the order of the rows;
    weights of 1.0 sum to K exactly. K equal rows merge to that row itself
    (the consensus case). The stack is read, never written: a trainer
    merges its own theta stack in place of K parameter vectors, and weights
    of 1.0 skip the product stack. Weights without a positive sum, and a
    weight sum, weighted row, column sum or mean beyond the float range,
    raise ``NumericInputError``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[0] != len(weights):
        raise ContractViolation("need a (K, P) row stack with K >= 1 and exactly K weights")
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericInputError("merge weights must be finite")
    if not np.all(np.isfinite(rows)):
        raise NumericInputError("merge rows must be finite")
    try:
        total = math.fsum(w.tolist())
    except OverflowError:
        raise NumericInputError("the merge weights' sum overflows the float range") from None
    if not total > 0.0:
        raise NumericInputError("merge weights must have a positive sum")
    products = rows
    if not np.all(w == 1.0):  # 1.0 * x is x, bit for bit
        with np.errstate(over="ignore"):
            products = w[:, None] * rows
        if not np.all(np.isfinite(products)):
            raise NumericInputError("a weighted merge row overflows the float range")
    bits = rows.view(np.uint64)  # bitwise, so +0.0 and -0.0 differ
    if np.all(bits == bits[0]):
        # consensus (one row included): the weighted mean of K identical vectors is that vector
        return rows[0].copy()
    try:
        sums = fsum_columns(products)
    except OverflowError:  # a column sum beyond the float range, although its mean is not
        raise NumericInputError("a merged column sum overflows the float range") from None
    with np.errstate(over="ignore"):
        merged = sums / total
    if not np.all(np.isfinite(merged)):  # weights summing to far below 1
        raise NumericInputError("the merged mean overflows the float range")
    return merged


# ---------------------------------------------------------------------------
# DFT operators
# ---------------------------------------------------------------------------

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


# Split (re, im) helpers: no kind calls them; they are the tests' reference
# transform and the benchmark's patch points. Signals sit in the last axis;
# the adjoints are the exact transposes of the forward maps.

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
# SGD with classical momentum
# ---------------------------------------------------------------------------

def _check_int(name, value, low):
    """``value`` as an int >= low; bools and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ContractViolation(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_real(name, value, high=math.inf, closed=True):
    """``value`` as a float in [0, high), or (0, high); bools, strings, NaN and
    integers beyond the float range fail."""
    with suppress(OverflowError):  # float() of an integer beyond the float range
        if (not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
                and (0.0 <= value if closed else 0.0 < value) and value < high):
            return float(value)
    interval = f"{'[' if closed else '('}0, {high})"
    raise ContractViolation(f"{name} must be a real number in {interval}, got {value!r}")


def check_step_settings(learning_rate: float, momentum: float) -> None:
    _check_real("learning rate", learning_rate, closed=False)
    _check_real("momentum", momentum, 1.0)


def sgd_step(theta: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
             learning_rate: float, momentum: float, scratch: np.ndarray | None = None) -> None:
    """In place: v <- mu*v + g; theta <- theta - eta*v (classical momentum).

    Every operation is elementwise, so on a (K, P) stack of rows each row
    ends bit for bit as the one-row step would leave it. ``scratch``, shaped
    like theta, holds eta*v; without it that product is a fresh array.
    """
    velocity *= momentum
    velocity += grad
    theta -= np.multiply(velocity, learning_rate, out=scratch)


# ---------------------------------------------------------------------------
# whole-file writes and the binary container
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """A file to write ``path`` through: a temporary beside it that replaces it on a clean exit.

    If the body raises, the temporary goes and ``path`` keeps its previous
    contents, or stays absent, so a reader never sees a partial file.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, mode, **kwargs) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temporary)
        raise


_MAGIC, _VERSION = b"CSTI", 2
_PREFIX = struct.Struct("<4sII")  # magic, version, header bytes
_COUNT = struct.Struct("<Q")  # payload values
_CRC = struct.Struct("<I")


def save_container(path, blob_type: str, pvec: ParamVector, **fields) -> None:
    """Write ``pvec`` as a ``blob_type`` container with the JSON ``fields`` in its header."""
    header = dict(fields, type=blob_type, layout=pvec.layout)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([_PREFIX.pack(_MAGIC, _VERSION, len(text)), text,
                     _COUNT.pack(len(pvec)), pvec.values.astype("<f8").tobytes()])
    with atomic_open(path, "wb") as fh:
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
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=count_at + _COUNT.size)
    try:
        return header, ParamVector(values, header["layout"])
    except CstiError as err:
        raise ContractViolation(f"{path}: {err}") from None

