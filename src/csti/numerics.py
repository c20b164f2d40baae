"""Mathematical substrate: argument rules, parameter vectors, their merge and file container,
DFT operators, SGD.

Every module checks its arguments with one vocabulary of rules (``Rule``: ``integer``,
``real``, ``reals``, ``optional``, ``BOOLEAN``) through ``check(name, rule, value)``: the
converted value, or ``ContractViolation`` "<name>: <message>, got <``shown`` value>". Only
this module tests a value's type against bool or numpy's scalar types.

The discrete Fourier transform is an explicit linear operator (cos/sin
matrices, ``dft_matrices``), so the frequency models backpropagate through
it with plain transposes; at lookbacks <= 64 the O(n^2) product beats FFT
bookkeeping. The kinds run one real gemm each way over a cached O(n^2) pair:
``planar_dft_operators`` F = [C | -E] (n, 2n) and B = F^T / n (2n, n) over
planar [re | im] spectra, or ``interleaved_dft_operators`` D (n, 2n), R
(2n, n) over complex128 spectra kept as (re, im) pairs. The transposes of
a pair carry gradients back.

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolation, CstiError, NumericInputError


# ---------------------------------------------------------------------------
# argument rules
# ---------------------------------------------------------------------------

class Rule(NamedTuple):
    """What an argument must be: ``check(value)`` -> bool, the ``message`` a value that fails
    it gets, and ``convert(passing value)`` -> the value its caller keeps."""

    check: Callable
    message: str
    convert: Callable


def integer(low: int, high: int | None = None) -> Rule:
    """An integer in [low, high], or >= low without ``high``, that is not a boolean."""
    return Rule(lambda value: type(value) is not bool and isinstance(value, (int, np.integer))
                and low <= value and (high is None or value <= high),
                f"integer >= {low} required" if high is None else
                f"integer in [{low}, {high}] required", int)


def real(test: Callable, message: str) -> Rule:
    """A number, not a boolean, that converts to a finite float and passes ``test``."""
    def passes(value):
        try:
            return type(value) is not bool and isinstance(value, (
                int, float, np.integer, np.floating)) and math.isfinite(value) and test(value)
        except OverflowError:  # an integer beyond the float range
            return False
    return Rule(passes, message, float)


def reals(test: Callable, whole: Callable, message: str) -> Rule:
    """A list, tuple or 1-d array, which ``whole`` passes, of ``real`` numbers that each
    pass ``test``; it converts to a tuple of floats."""
    entry = real(test, message).check
    return Rule(lambda value: (isinstance(value, (list, tuple)) or isinstance(
        value, np.ndarray) and value.ndim == 1) and all(map(entry, value)) and whole(value),
        message, lambda value: tuple(float(x) for x in value))


def optional(rule: Rule, absent: str) -> Rule:
    """``rule``, or None, which it keeps; its message names None as ``absent``."""
    return Rule(lambda value: value is None or rule.check(value),
                f"{rule.message.removesuffix(' required')} (or {absent}) required",
                lambda value: None if value is None else rule.convert(value))


BOOLEAN = Rule(lambda value: isinstance(value, bool), "boolean required", bool)
POSITIVE = real(lambda value: value > 0, "must be finite and > 0")


def check(name: str, rule: Rule, value):
    """``value`` as ``rule`` converts it, if it passes the rule; else ContractViolation
    ``"<name>: <rule's message>, got <value>"``."""
    if not rule.check(value):
        raise ContractViolation(f"{name}: {rule.message}, got {shown(value)}")
    return rule.convert(value)


def shown(value) -> str:
    """``repr(value)``, which a message quotes; an integer too long for ``repr``
    (``sys.get_int_max_str_digits``) shows as "an integer of <n> digits"."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} holding an integer too long to print"
        digits = int(abs(value).bit_length() * math.log10(2))  # at most the digit count
        while 10 ** digits <= abs(value):
            digits += 1
        return f"an integer of {digits} digits"


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------

class ParamVector:
    """Flat float64 values and their layout: (name, length) pairs of consecutive segments.

    Two vectors fit the same model iff their layouts are identical. The
    constructor is the one place a vector is checked: a well-formed layout
    that covers every value, and finite values, which it copies read-only.
    Instances are immutable, so a model holds the vector it was built over
    and exports that very object; ``replace`` returns a new vector.
    """

    __slots__ = ("values", "layout")
    _LENGTH = integer(0)  # of a segment

    def __init__(self, values, layout: Sequence[tuple[str, int]]):
        arr = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        if not isinstance(layout, (list, tuple)) or not all(
                isinstance(seg, (list, tuple)) and len(seg) == 2 and isinstance(seg[0], str)
                for seg in layout):
            raise ContractViolation("a layout must be a list of (name, length) pairs")
        layout = tuple((name, check(f"segment {name!r} length", self._LENGTH, length))
                       for name, length in layout)
        total = sum(length for _, length in layout)
        if total != arr.size:
            raise ContractViolation(f"layout covers {shown(total)} values, vector has {arr.size}")
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


def axpy_merge(rows: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Merge the (K, P) row stack into its weighted mean, a fresh (P,) array.

    The sum runs in row order: s = w_0 * rows[0], then s = s + w_k * rows[k]
    for k = 1 .. K - 1, one elementwise IEEE add per row, so neither a BLAS
    kernel nor the memory layout reaches the bits.
    The mean is s / math.fsum(w); weights of 1.0 sum to K exactly. The
    result depends on the order of the rows, so it is order-free only for
    a stack in a canonical order, as the trainer's (``_StockStack``) is.
    K equal rows merge to that row itself (the consensus case). The stack
    is read, never written: a trainer merges its own theta stack in place
    of K parameter vectors, and weights of 1.0 skip the product stack.
    Weights without a positive sum, and a weight sum, weighted row, partial
    sum or mean beyond the float range, raise ``NumericInputError``: a
    partial sum can overflow although the whole column's would not, as in
    [1e308, 1e308, -1e308].
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
    # a loop, not np.add.reduce(axis=0): numpy reduces a single column, or a
    # Fortran-ordered stack, pairwise from K = 8 on, not in row order
    sums = products[0].copy()
    with np.errstate(over="ignore"):
        for row in products[1:]:
            sums += row
        if not np.all(np.isfinite(sums)):  # finite rows, so only an overflow leaves inf
            raise NumericInputError("a merged column sum overflows the float range")
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
def planar_dft_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """F = [C | -E] (n, 2n) and B = F^T / n (2n, n), over planar [re | im] spectra.

    ``z @ F`` is [Re | Im] DFT(z) and ``[f_re | f_im] @ B`` is Re IDFT(f);
    B.T and F.T carry their gradients back. C and E are symmetric.
    """
    c, e = dft_matrices(n)
    f = np.concatenate([c, -e], axis=1)
    b = np.ascontiguousarray(f.T) / n
    f.flags.writeable = b.flags.writeable = False
    return f, b


@lru_cache(maxsize=None)
def interleaved_dft_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """D (n, 2n) and R (2n, n) over complex128 spectra kept as (re, im) pairs.

    ``(z @ D).view(complex128)`` is DFT(z) and ``y.view(float64) @ R`` is
    Re IDFT(y). Column 2f of D holds C[f], column 2f+1 holds -E[f]; R = D^T/n.
    """
    f, b = planar_dft_operators(n)
    d = np.ascontiguousarray(f.reshape(n, 2, n).transpose(0, 2, 1).reshape(n, 2 * n))
    r = np.ascontiguousarray(b.reshape(2, n, n).transpose(1, 0, 2).reshape(2 * n, n))
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

    def require(ok, problem):
        if not ok:
            raise ContractViolation(f"{path}: {problem}")

    require(len(blob) >= _PREFIX.size + _COUNT.size + _CRC.size, f"{len(blob)} bytes is too short")
    magic, version, header_bytes = _PREFIX.unpack_from(blob)
    require(magic == _MAGIC, "not a csti container (format version 1 files are not read)")
    require(version == _VERSION, f"unsupported container version {version}")
    count_at = _PREFIX.size + header_bytes
    require(len(blob) >= count_at + _COUNT.size + _CRC.size, "container truncated in its header")
    (count,) = _COUNT.unpack_from(blob, count_at)
    end = count_at + _COUNT.size + 8 * count
    require(len(blob) == end + _CRC.size, f"{len(blob)} bytes, its lengths give {end + _CRC.size}")
    require(zlib.crc32(memoryview(blob)[:end]) == _CRC.unpack_from(blob, end)[0],
            "checksum mismatch")
    try:
        header = json.loads(blob[_PREFIX.size : count_at].decode("utf-8"))
    except ValueError as err:  # UTF-8 and JSON errors
        raise ContractViolation(f"{path}: container header is not UTF-8 JSON: {err}") from None
    require(isinstance(header, dict), "container header is not a JSON object")
    require(header.get("type") == blob_type, f"a {header.get('type')!r} blob, not {blob_type!r}")
    require(set(header) == {"type", "layout", *fields}, f"header keys are not the {blob_type} keys")
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=count_at + _COUNT.size)
    try:
        return header, ParamVector(values, header["layout"])
    except CstiError as err:
        raise ContractViolation(f"{path}: {err}") from None

