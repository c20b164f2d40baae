import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csti.errors import ContractViolation, DegenerateTargetError, ShapeMismatchError
from csti.metrics import (
    MetricSet,
    export_regression_series,
    macro_average,
    mae,
    metric_set,
    mse,
    r_squared,
    write_report_json,
)
from csti.numerics import atomic_open
from csti.training import TrainingTrace, _StackLog, write_trace_csv

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec_pair(min_size=2, max_size=32):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=finite_floats),
            arrays(np.float64, n, elements=finite_floats),
        )
    )


# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------

def test_mae_examples():
    assert mae([1, 2], [1, 4]) == 1.0
    assert mae([3, 3], [3, 3]) == 0.0


def test_mse_examples():
    assert mse([1, 2], [1, 4]) == 2.0
    assert mse([3, 3], [3, 3]) == 0.0


def test_r_squared_examples():
    assert r_squared([1, 2], [1, 2]) == 1.0
    assert r_squared([1.5, 1.5], [1, 2]) == pytest.approx(0.0)
    assert r_squared([1, 0], [0, 1]) == pytest.approx(-3.0)


def test_r_squared_degenerate_target():
    with pytest.raises(DegenerateTargetError):
        r_squared([1, 2], [5, 5])


def test_length_mismatch_and_empty():
    with pytest.raises(ShapeMismatchError):
        mae([1, 2], [1])
    with pytest.raises(ContractViolation):
        mse([], [])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(vec_pair())
@example((np.array([1e6, 1e6]), np.array([999999.9375, 999999.9375])))
def test_mae_homogeneity_and_jensen(pair):
    pred, actual = pair
    base = mae(pred, actual)
    # a power of two scales every step exactly, unless the mean is subnormal
    if base > np.finfo(np.float64).tiny:
        assert mae(4.0 * pred, 4.0 * actual) == 4.0 * base
    # 3.7 rounds the scaled inputs by up to eps/2 of each (or half the
    # subnormal spacing), so nearly cancelling inputs move mae by up to that
    c = 3.7
    rounding = c * np.finfo(np.float64).eps * np.max(np.abs([pred, actual]))
    assert mae(c * pred, c * actual) == pytest.approx(
        c * base, rel=1e-9, abs=rounding + 8 * np.finfo(np.float64).smallest_subnormal)
    assert mae(pred, actual) ** 2 <= mse(pred, actual) * (1 + 1e-9) + 1e-9


@settings(max_examples=100, deadline=None)
@given(vec_pair())
def test_permutation_invariance(pair):
    pred, actual = pair
    perm = np.random.default_rng(0).permutation(pred.size)
    assert mae(pred[perm], actual[perm]) == pytest.approx(mae(pred, actual), rel=1e-12)
    assert mse(pred[perm], actual[perm]) == pytest.approx(mse(pred, actual), rel=1e-12)
    if np.ptp(actual) > 1e-9:
        assert r_squared(pred[perm], actual[perm]) == pytest.approx(
            r_squared(pred, actual), rel=1e-9
        )


@settings(max_examples=100, deadline=None)
@given(vec_pair(min_size=3))
def test_r_squared_affine_invariance(pair):
    pred, actual = pair
    if np.ptp(actual) < 1e-6:
        return
    a, b = 2.5, -7.0
    base = r_squared(pred, actual)
    shifted = r_squared(a * pred + b, a * actual + b)
    assert shifted == pytest.approx(base, rel=1e-6, abs=1e-9)
    # mae/mse scale instead
    assert mae(a * pred + b, a * actual + b) == pytest.approx(
        abs(a) * mae(pred, actual), rel=1e-9, abs=1e-12
    )


def test_metric_set_invariants_on_random_vectors():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = rng.integers(2, 40)
        actual = rng.standard_normal(n)
        if np.ptp(actual) == 0:
            continue
        pred = actual + rng.standard_normal(n) * rng.uniform(0, 2)
        ms = metric_set(pred, actual)
        assert ms.mae**2 <= ms.mse + 1e-12
        assert ms.r2 <= 1.0
        assert (ms.r2 == 1.0) == (ms.mse == 0.0)


def test_metric_set_rejects_inconsistent_values():
    with pytest.raises(ContractViolation):
        MetricSet(mae=2.0, mse=1.0, r2=0.5, n=4)


def test_macro_average_example():
    sets = [MetricSet(0.1, 0.01, 0.5, 10), MetricSet(0.1, 0.03, 0.7, 10)]
    assert macro_average(sets)["mse"] == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# regression series export
# ---------------------------------------------------------------------------

def test_export_regression_series_format(tmp_path):
    path = tmp_path / "reg.csv"
    export_regression_series([0.1, 0.2, 0.3], [0.15, 0.25, 0.35], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,actual,predicted"
    assert len(lines) == 4
    assert lines[1] == "0,0.15,0.1"


def test_export_regression_series_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    pred, actual = rng.standard_normal(20), rng.standard_normal(20)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_regression_series(pred, actual, p1, t=np.arange(20) + 100)
    export_regression_series(pred, actual, p2, t=np.arange(20) + 100)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_regression_series_empty_rejected(tmp_path):
    with pytest.raises(ContractViolation):
        export_regression_series([], [], tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# whole-file writes
# ---------------------------------------------------------------------------

def _write_then_fail(path):
    with atomic_open(path) as fh:
        fh.write("partial")
        raise RuntimeError("failed midway")


def _write_a_trace_with_a_bad_loss(path):
    # stock B's loss is not a number, so the writer fails on B's line, after A's
    trace = TrainingTrace()
    trace.logs.append(("finetune", 1, ["A", "B"],
                       _StackLog(np.array([[0.5], ["x"]], dtype=object), np.zeros((2, 1)), [1.0])))
    write_trace_csv(trace, path)


_FAILING_WRITES = {  # each writes some lines before it raises
    "atomic_open": (_write_then_fail, RuntimeError),
    "write_report_json": (lambda path: write_report_json({"a": [1, 2], "b": object()}, path),
                          TypeError),
    "write_trace_csv": (_write_a_trace_with_a_bad_loss, ValueError),
    "export_regression_series": (lambda path: export_regression_series(
        [0.1, 0.2], [0.3, 0.4], path, t=["1", "x"]), ValueError),
}


@pytest.mark.parametrize("name", sorted(_FAILING_WRITES))
def test_a_write_that_fails_midway_leaves_the_previous_file_or_none(name, tmp_path):
    write, error = _FAILING_WRITES[name]
    path = tmp_path / "out"
    with pytest.raises(error):
        write(path)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"previous")
    with pytest.raises(error):
        write(path)
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"previous"
