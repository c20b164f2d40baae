import datetime
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csti.data import (
    CLOSE_COL,
    SPLIT_NAMES,
    StockSeries,
    WindowedDataset,
    denormalize_close,
    fit_normalizer,
    generate_synthetic_market,
    load_csv_detailed,
    make_windows,
    normalize,
    split_bounds,
)
from csti.errors import (
    ContractViolation,
    CstiError,
    DegenerateColumnError,
    InsufficientDataError,
    NumericInputError,
    SchemaError,
    WrongNormalizerError,
)
from csti.models import build_model

from conftest import write_series_csv


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BASIC_CSV = """date,open,close
2020-01-02,10,11
2020-01-03,11,12
2020-01-06,12,13
2020-01-07,13,14
"""

SENTIMENT_CSV = """date,open,close,sentiment
2020-01-02,10,11,0.5
2020-01-03,11,12,0.7
2020-01-06,12,13,0.2
2020-01-07,13,14,0.9
"""


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_basic_csv(tmp_path):
    series = load_csv_detailed(write_csv(tmp_path / "a.csv", BASIC_CSV))[0]
    assert series.T == 4 and series.d == 2
    assert series.features[0, 0] == 10.0 and series.features[-1, 1] == 14.0


def test_load_with_sentiment_column(tmp_path):
    path = write_csv(tmp_path / "a.csv", SENTIMENT_CSV)
    series = load_csv_detailed(path, with_sentiment=True)[0]
    assert series.d == 3
    assert series.features[1, 2] == 0.7


def test_load_ignores_extra_columns_and_sorts(tmp_path):
    text = (
        "volume,close,date,open\n"
        "99,12,2020-01-03,11\n"
        "98,11,2020-01-02,10\n"
    )
    series = load_csv_detailed(write_csv(tmp_path / "a.csv", text))[0]
    assert series.features.tolist() == [[10.0, 11.0], [11.0, 12.0]]  # 2020-01-02 first


def test_missing_column_names_it(tmp_path):
    path = write_csv(tmp_path / "a.csv", "date,open\n2020-01-02,10\n")
    with pytest.raises(SchemaError, match="close"):
        load_csv_detailed(path)
    path2 = write_csv(tmp_path / "b.csv", BASIC_CSV)
    with pytest.raises(SchemaError, match="sentiment"):
        load_csv_detailed(path2, with_sentiment=True)


def test_non_utf8_csv_names_path_and_byte_offset(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"date,open,close\n2020-01-02,10,11\n2020-01-03,caf\xe9,12\n")
    with pytest.raises(SchemaError, match=r"latin1\.csv.*byte offset 47"):
        load_csv_detailed(path)


def test_byte_order_mark_before_the_header_is_skipped(tmp_path):
    # as in an Excel export; a bad byte after it keeps its offset in the file
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + BASIC_CSV.encode())
    series, rejections = load_csv_detailed(path)
    assert series.T == 4 and rejections == []
    assert series.features[0].tolist() == [10.0, 11.0]
    path.write_bytes(b"\xef\xbb\xbfdate,open,close\n2020-01-02,10,11\n2020-01-03,caf\xe9,12\n")
    with pytest.raises(SchemaError, match=r"bom\.csv.*byte offset 50"):
        load_csv_detailed(path)


@pytest.mark.parametrize("header", ["date,open,close,Close", "date,open,close, CLOSE ",
                                    "Date,open,close,date"])
def test_a_required_column_named_twice_is_rejected(tmp_path, header):
    name = header.split(",")[-1].strip().lower()
    path = write_csv(tmp_path / "a.csv", f"{header}\n2020-01-02,10,11,12\n2020-01-03,11,12,13\n")
    with pytest.raises(SchemaError, match=f"{name}' is named more than once"):
        load_csv_detailed(path)
    sentiment = write_csv(tmp_path / "s.csv", "date,open,close,Close,sentiment\n"
                          "2020-01-02,10,11,12,0.5\n2020-01-03,11,12,13,0.5\n")
    with pytest.raises(SchemaError, match="'close' is named more than once"):
        load_csv_detailed(sentiment, with_sentiment=True)


def test_extra_columns_may_repeat(tmp_path):
    text = ("date,volume,open,Volume,close,sentiment,SENTIMENT\n"
            "2020-01-02,1,10,2,11,0.1,0.2\n2020-01-03,3,11,4,12,0.3,0.4\n")
    series, rejections = load_csv_detailed(write_csv(tmp_path / "a.csv", text))
    assert rejections == [] and series.features.tolist() == [[10.0, 11.0], [11.0, 12.0]]


def test_csv_cell_over_the_field_limit_names_path_and_line(tmp_path):
    path = write_csv(tmp_path / "huge.csv", BASIC_CSV + "2020-01-08,1" + "0" * 131_072 + ",15\n")
    with pytest.raises(SchemaError, match=r"huge\.csv: line 6"):
        load_csv_detailed(path)


_HEADER = b"date,open,close\n"
_ROW = st.tuples(st.dates(), st.floats(), st.floats()).map(
    lambda r: f"{r[0].isoformat()},{r[1]!r},{r[2]!r}"
)


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=400),
    st.binary(max_size=400).map(lambda b: _HEADER + b),
    st.lists(st.one_of(_ROW, _ROW, st.text(max_size=30)), max_size=12).map(
        lambda rows: _HEADER + "\n".join(rows).encode()
    ),
))
def test_arbitrary_csv_bytes_load_or_raise_a_csti_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(blob)
    try:
        series, rejections = load_csv_detailed(path)
    except CstiError:
        return
    assert series.T >= 2 and all(isinstance(r, str) for r in rejections)


def test_bad_rows_are_dropped_and_reported(tmp_path):
    text = (
        "date,open,close\n"
        "2020-01-02,10,11\n"
        "not-a-date,11,12\n"
        "2020-01-06,,13\n"
        "2020-01-07,abc,14\n"
        "2020-01-08,14,15\n"
        "2020-01-08,99,99\n"
    )
    series, rejections = load_csv_detailed(write_csv(tmp_path / "a.csv", text))
    assert series.T == 2
    assert len(rejections) == 4
    assert any("unparseable date" in r for r in rejections)
    assert any("duplicate date" in r for r in rejections)


# rows of each kind of bad row, named as its rejection names it
_BAD_ROWS = {
    "missing cell": ["2021-06-01,1", "2021-06-01,,1", "2021-06-01,1, ", " ,1,2", "2021-06-01"],
    "unparseable date": ["2021/06/01,1,2", "20210601,1,2", " x ,1,2", "2021-06-31,1,2",
                         "2021-6-01,1,2"],
    "non-numeric cell": ["2021-06-01,abc,2", "2021-06-01,1,1e", "2021-06-01,1,0x1"],
    "non-finite value": ["2021-06-01,inf,2", "2021-06-01,1,nan", "2021-06-01,-1e999,2"],
}


@settings(max_examples=150, deadline=None)
@given(good=st.integers(2, 15), data=st.data())
def test_each_bad_row_kind_is_rejected_at_its_line(tmp_path_factory, good, data):
    # bad rows of every kind, and duplicates of good dates, at random lines:
    # the line messages come in file order, then one per duplicate, by date
    days = [datetime.date(2021, 1, 1) + datetime.timedelta(days=k) for k in range(good)]
    lines = [(f"{day.isoformat()},{k + 1.0!r},{k + 2.5!r}", None) for k, day in enumerate(days)]
    duplicated = []
    for kind in data.draw(st.lists(st.sampled_from([*_BAD_ROWS, "duplicate"]), max_size=8)):
        if kind == "duplicate":
            duplicated.append(days[data.draw(st.integers(0, good - 1))])
            row, kind = f"{duplicated[-1].isoformat()},7,8", None
        else:
            row = data.draw(st.sampled_from(_BAD_ROWS[kind]))
        lines.insert(data.draw(st.integers(0, len(lines))), (row, kind))
    path = tmp_path_factory.getbasetemp() / "bad_rows.csv"
    path.write_text("".join(f"{row}\n" for row in ["date,open,close", *(r for r, _ in lines)]),
                    encoding="utf-8")
    series, rejections = load_csv_detailed(path)
    expected = [f"line {lineno}: unparseable date {row.split(',')[0]!r}"
                if kind == "unparseable date" else f"line {lineno}: {kind}"
                for lineno, (row, kind) in enumerate(lines, start=2) if kind is not None]
    expected += [f"duplicate date {day.isoformat()} dropped" for day in sorted(duplicated)]
    assert rejections == expected
    # one row per date, in date order: of rows sharing a date, the first in the file
    first = {}
    for row, kind in lines:
        if kind is None:
            day, *values = row.split(",")
            first.setdefault(day, list(map(float, values)))
    assert series.features.tolist() == [first[day.isoformat()] for day in days]


@pytest.mark.parametrize("stamp", ["20240105", "2024-W01-5", "2024-01-05T00:00",
                                   "\uff12\uff10\uff12\uff14-01-05"])
def test_only_ascii_yyyy_mm_dd_dates_load(tmp_path, stamp):
    # date.fromisoformat takes the first three on Python 3.11 but not on 3.10
    text = f"date,open,close\n2024-01-02,10,11\n{stamp},11,12\n2024-01-08,14,15\n"
    series, rejections = load_csv_detailed(write_csv(tmp_path / "a.csv", text))
    assert series.T == 2
    assert rejections == [f"line 3: unparseable date {stamp!r}"]


def test_too_few_usable_rows(tmp_path):
    path = write_csv(tmp_path / "a.csv", BASIC_CSV)
    with pytest.raises(InsufficientDataError, match="18"):
        load_csv_detailed(path, min_rows=18)  # e.g. L + H + 1 with L=16, H=1


@pytest.mark.parametrize("name,value", [("min_rows", "a"), ("min_rows", 2.5), ("min_rows", True),
                                        ("min_rows", -3), ("with_sentiment", "no")])
def test_load_csv_detailed_checks_min_rows_and_with_sentiment(tmp_path, name, value):
    # "a" used to escape as a raw TypeError, 2.5, True and -3 were taken (2.5 asking
    # for "at least 2.5" rows), and "no" asked for a sentiment column
    path = write_csv(tmp_path / "a.csv", BASIC_CSV)
    with pytest.raises(ContractViolation,
                       match=f"^{name}: .* required, got {re.escape(repr(value))}$"):
        load_csv_detailed(path, **{name: value})


def test_constant_close_loads_but_normalizer_rejects(tmp_path):
    text = "date,open,close\n" + "".join(
        f"2020-01-{d:02d},{10 + d},42\n" for d in range(1, 11)
    )
    series = load_csv_detailed(write_csv(tmp_path / "a.csv", text))[0]
    assert series.T == 10
    with pytest.raises(DegenerateColumnError):
        fit_normalizer(series, 0.7)


def test_csv_roundtrip_via_export(tmp_path):
    market = generate_synthetic_market(1, 80, 0.5, seed=3)
    path = tmp_path / "syn.csv"
    write_series_csv(market[0], path)
    back = load_csv_detailed(path, with_sentiment=True)[0]
    assert back.T == market[0].T
    assert np.allclose(back.features, market[0].features, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _series(close, opens=None):
    close = np.asarray(close, dtype=float)
    opens = np.asarray(opens if opens is not None else close - 0.5, dtype=float)
    return StockSeries("TST", np.column_stack([opens, close]))


def test_fit_normalizer_examples():
    series = _series([10, 20, 30, 99, 99])
    params = fit_normalizer(series, 0.6)  # first 3 rows
    assert params.per_column_min[1] == 10.0
    assert params.per_column_max[1] == 30.0


def test_fit_normalizer_train_fraction_row_count():
    series = _series(np.arange(10, dtype=float))
    params = fit_normalizer(series, 0.7)  # first 7 rows: 0..6
    assert params.per_column_max[1] == 6.0


def test_fit_normalizer_rejects_constant_train_segment():
    series = _series([5, 5, 5, 1, 9])
    with pytest.raises(DegenerateColumnError):
        fit_normalizer(series, 0.6)


@pytest.mark.parametrize("col", [0, 1])
def test_fit_normalizer_names_the_constant_column(col):
    columns = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5)]
    columns[col] = np.array([5.0, 5.0, 5.0, 1.0, 9.0])
    with pytest.raises(DegenerateColumnError, match=f"column {col} has max <= min"):
        fit_normalizer(_series(columns[1], opens=columns[0]), 0.6)


@pytest.mark.parametrize("close", [
    [0.0, 2.225073858507203e-309, 0.0, 1.0],  # subnormal span, later row overflows
    [0.0, 1e-303, 0.0, 1e6],
])
def test_fit_normalizer_rejects_span_too_small_to_scale_the_series(close):
    series = _series(np.asarray(close), opens=np.linspace(0, 1, len(close)))
    with pytest.raises(DegenerateColumnError, match="column 1"):
        fit_normalizer(series, 0.7)


def test_fit_normalizer_rejects_infinite_span():
    series = _series(np.array([-1e308, 1e308, 0.0, 1.0]), opens=np.linspace(0, 1, 4))
    with pytest.raises(DegenerateColumnError, match="column 1"):
        fit_normalizer(series, 0.7)


def test_normalize_values_and_out_of_range():
    series = _series([10.0, 20.0, 30.0, 40.0])
    params = fit_normalizer(series, 0.75)  # min 10, max 30 on close
    normed = normalize(series, params)
    assert normed.features[1, 1] == pytest.approx(0.5)
    assert normed.features[0, 1] == pytest.approx(0.0)
    assert normed.features[3, 1] == pytest.approx(1.5)  # test rows may exceed [0, 1]


def test_normalize_wrong_stock_rejected():
    a = _series([1.0, 2.0, 3.0, 4.0])
    params = fit_normalizer(a, 0.75)
    b = StockSeries("OTHER", a.features)
    with pytest.raises(WrongNormalizerError):
        normalize(b, params)


def test_normalize_rejects_a_normalizer_of_another_column_count():
    series = generate_synthetic_market(1, 200, 0.5, seed=4)[0]
    with pytest.raises(WrongNormalizerError, match="of 3 columns applied to a series of 2"):
        normalize(series.drop_sentiment(), fit_normalizer(series, 0.7))
    with pytest.raises(WrongNormalizerError, match="of 2 columns applied to a series of 3"):
        normalize(series, fit_normalizer(series.drop_sentiment(), 0.7))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=40))
def test_normalize_roundtrip_property(values):
    arr = np.asarray(values)
    if np.ptp(arr[: max(2, int(0.7 * arr.size))]) == 0 or np.ptp(arr) == 0:
        return  # degenerate train segment is rejected by contract
    series = _series(arr, opens=np.linspace(0, 1, arr.size))
    try:
        params = fit_normalizer(series, 0.7)
    except DegenerateColumnError:
        return
    close = series.features[:, CLOSE_COL]
    back = denormalize_close(normalize(series, params).features[:, CLOSE_COL], params)
    assert np.max(np.abs(back - close)) < 1e-12 * max(1.0, np.max(np.abs(close)))


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def test_window_count_formula():
    # train split covers exactly T' = 10 rows: N = 10 - 4 - 1 + 1 = 6
    series = _series(np.arange(20, dtype=float) + np.linspace(0, 0.9, 20))
    ds = make_windows(series, 4, 1, "train", (0.5, 0.25, 0.25))
    assert ds.n_windows == 6


def test_window_insufficient_segment():
    series = _series(np.arange(10, dtype=float))  # train split: 5 rows < L+H=6
    with pytest.raises(InsufficientDataError, match="L\\+H=6"):
        make_windows(series, 4, 2, "train", (0.5, 0.25, 0.25))


def test_window_target_is_next_close():
    values = np.arange(40, dtype=float)
    series = _series(values)
    ds = make_windows(series, 4, 1, "train", (0.5, 0.25, 0.25))
    for i in range(ds.n_windows):
        assert ds.targets[i, 0] == values[i + 4]
        assert np.array_equal(ds.inputs[i, :, 1], values[i : i + 4])
        assert ds.absolute_indices[i] == i + 4


def test_window_coverage_and_no_split_crossing():
    series = _series(np.arange(100, dtype=float))
    fractions = (0.7, 0.1, 0.2)
    bounds = split_bounds(series.T, fractions)
    for split in ("train", "val", "test"):
        start, end = bounds[split]
        ds = make_windows(series, 5, 2, split, fractions)
        covered = set()
        for i in range(ds.n_windows):
            first_target = ds.absolute_indices[i]
            covered.update(range(first_target - 5, first_target + 2))
        assert covered == set(range(start, end))


@settings(max_examples=60, deadline=None)
@given(total=st.integers(12, 120), lookback=st.integers(1, 8), horizon=st.integers(1, 4),
       d=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_windows_equal_the_per_window_loop(total, lookback, horizon, d, seed):
    features = np.random.default_rng(seed).normal(size=(total, d))
    series = StockSeries("TST", features)
    for split in SPLIT_NAMES:
        start, end = split_bounds(total, (0.7, 0.1, 0.2))[split]
        n = end - start - lookback - horizon + 1
        if n < 1:
            with pytest.raises(InsufficientDataError):
                make_windows(series, lookback, horizon, split)
            continue
        ds = make_windows(series, lookback, horizon, split)
        seg = features[start:end]
        loop_inputs = np.stack([seg[s : s + lookback] for s in range(n)])
        loop_targets = np.stack([seg[s + lookback : s + lookback + horizon, CLOSE_COL]
                                 for s in range(n)])
        assert ds.inputs.tobytes() == loop_inputs.tobytes()
        assert ds.targets.tobytes() == loop_targets.tobytes()
        assert ds.inputs.shape == loop_inputs.shape and ds.targets.shape == loop_targets.shape
        # inputs are a read-only view of the series' own rows; targets a contiguous copy
        assert not ds.inputs.flags.writeable and np.shares_memory(ds.inputs, series.features)
        assert ds.targets.flags.c_contiguous
        assert np.array_equal(ds.absolute_indices, start + lookback + np.arange(n))


def test_windows_hold_no_copy_of_the_series():
    # a (N, L, d) copy would hold each series value L times over
    series = StockSeries("TST", np.random.default_rng(5).normal(size=(2000, 3)))
    tracemalloc.start()
    try:
        ds = make_windows(series, 16, 1, "train")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copy_bytes = ds.inputs.size * ds.inputs.itemsize
    assert ds.inputs.shape == (1384, 16, 3)
    assert held < copy_bytes / 8, (held, copy_bytes)
    assert peak < copy_bytes / 2, (peak, copy_bytes)  # no passing copy either
    # nor a check that reads each value L times: (N, L, d) finiteness flags alone take 66 KB
    assert peak < 48_000, peak


@settings(max_examples=60, deadline=None)
@given(lookback=st.integers(4, 12), extra=st.integers(0, 30), data=st.data())
def test_a_non_finite_value_anywhere_in_the_windows_is_rejected(lookback, extra, data):
    # the windows cover every row, and a window view is checked by two of its slices
    total = lookback + extra
    row, col = data.draw(st.integers(0, total - 1)), data.draw(st.integers(0, 2))
    features = np.random.default_rng(row).uniform(size=(total, 3))
    features[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    view = np.lib.stride_tricks.sliding_window_view(features, (lookback, 3))[:, 0]
    assert view.strides[0] == view.strides[1]
    model, n = build_model("dlinear", lookback, 1, 3), len(view)
    for inputs in (view, np.array(view)):
        with pytest.raises(NumericInputError, match="non-finite window values"):
            WindowedDataset("TST", lookback, 1, inputs, np.zeros((n, 1)), np.arange(n))
        with pytest.raises(NumericInputError, match="batch inputs contain non-finite values"):
            model.predict_batch(inputs)


def test_a_dataset_leaves_the_callers_arrays_writeable():
    # the dataset freezes views of what it is given, not the caller's own arrays
    inputs, targets, indices = np.zeros((3, 4, 2)), np.zeros((3, 1)), np.arange(3)
    ds = WindowedDataset("A", 4, 1, inputs, targets, indices)
    inputs[0], targets[0], indices[0] = 1.0, 1.0, 7
    assert not any(a.flags.writeable for a in (ds.inputs, ds.targets, ds.absolute_indices))
    assert ds.inputs[0, 0, 0] == ds.targets[0, 0] == 1.0 and ds.absolute_indices[0] == 7


@pytest.mark.parametrize("name,value", [("lookback", True), ("lookback", 2.0), ("lookback", 0),
                                        ("horizon", True)])
def test_a_dataset_checks_its_lookback_and_horizon(name, value):
    # each used to be taken as given, with arrays of the shapes it names
    sizes = {"lookback": 2, "horizon": 1, name: value}
    inputs, targets = np.zeros((2, int(sizes["lookback"]), 2)), np.zeros((2, int(sizes["horizon"])))
    with pytest.raises(ContractViolation,
                       match=f"^{name}: integer >= 1 required, got {re.escape(repr(value))}$"):
        WindowedDataset("x", sizes["lookback"], sizes["horizon"], inputs, targets, [0, 1])


def test_a_dataset_keeps_its_lookback_and_horizon_as_ints():
    ds = WindowedDataset("x", np.int64(2), np.int64(1), np.zeros((2, 2, 2)), np.zeros((2, 1)),
                         [0, 1])
    assert (type(ds.lookback), type(ds.horizon)) == (int, int)


def test_split_chronology():
    # the splits tile the rows in date order: each starts where the one before ends
    bounds = split_bounds(200, (0.7, 0.1, 0.2))
    assert bounds["train"][0] == 0 and bounds["test"][1] == 200
    assert bounds["train"][1] == bounds["val"][0]
    assert bounds["val"][1] == bounds["test"][0]


def test_fractions_must_sum_to_one():
    series = _series(np.arange(30, dtype=float))
    with pytest.raises(ContractViolation):
        make_windows(series, 4, 1, "train", (0.5, 0.2, 0.2))


def test_normalized_windows_stay_in_tolerance_band():
    train, test, _ = __import__("conftest").windowed_market(2, 400, 0.7, seed=21)
    for ds in train + test:
        assert ds.inputs.min() >= -0.5 and ds.inputs.max() <= 1.5
        assert ds.targets.min() >= -0.5 and ds.targets.max() <= 1.5


# ---------------------------------------------------------------------------
# synthetic market
# ---------------------------------------------------------------------------

def _return_correlations(market):
    returns = np.stack([np.diff(s.features[:, 1]) for s in market])
    corr = np.corrcoef(returns)
    return corr[np.triu_indices(len(market), k=1)]


def test_synthetic_no_sharing_uncorrelated():
    market = generate_synthetic_market(4, 2000, 0.0, seed=33)
    rho = _return_correlations(market)
    assert np.max(np.abs(rho)) < 0.2


def test_synthetic_full_sharing_correlated():
    market = generate_synthetic_market(4, 2000, 1.0, seed=33)
    rho = _return_correlations(market)
    assert np.min(rho) > 0.9


@pytest.mark.parametrize("seed,sha256", [
    (0, "14750dbbef5bd10e67ca6b681c75f8d125ed6ada8abfd2d733e761225e162d65"),
    (7, "868cc61ae43ea800022c976b758d8c3ba5c681515f341aa23297d05146a811c0"),
])
def test_synthetic_market_bits_are_pinned(seed, sha256):
    # the sha256 of every series' features, in order, as the float64 AR(1)
    # loop wrote them: the recursion on Python floats must keep each bit
    digest = hashlib.sha256()
    for series in generate_synthetic_market(4, 200, 0.7, seed):
        digest.update(series.features.tobytes())
    assert digest.hexdigest() == sha256


def test_synthetic_determinism():
    a = generate_synthetic_market(3, 128, 0.6, seed=77)
    b = generate_synthetic_market(3, 128, 0.6, seed=77)
    for sa, sb in zip(a, b):
        assert sa.stock_id == sb.stock_id
        assert np.array_equal(sa.features, sb.features)


@pytest.mark.parametrize("length", [10**19, 2**61])  # past numpy's index range, its byte range
def test_synthetic_length_numpy_cannot_allocate_is_a_named_error(length):
    # numpy refuses these sizes before it allocates anything
    with pytest.raises(ContractViolation, match=f"length {length} is too large to generate"):
        generate_synthetic_market(1, length, 0.5, seed=1)


def test_synthetic_shapes_and_sentiment_bounds():
    market = generate_synthetic_market(2, 100, 0.5, seed=5)
    for s in market:
        assert s.d == 3 and s.T == 100
        assert s.features[:, 2].min() >= 0.0 and s.features[:, 2].max() <= 1.0


def test_synthetic_validation_errors():
    with pytest.raises(ContractViolation):
        generate_synthetic_market(0, 100, 0.5, seed=1)
    with pytest.raises(ContractViolation):
        generate_synthetic_market(2, 32, 0.5, seed=1)


_SERIES = StockSeries("TST", np.column_stack([np.arange(200.0), np.arange(200.0) + 1.0]))
_DATA_CALLS = {
    "generate_synthetic_market": lambda **given: generate_synthetic_market(
        **{"stocks": 2, "length": 100, "shared_strength": 0.5, "seed": 1, **given}),
    "make_windows": lambda **given: make_windows(
        _SERIES, **{"lookback": 16, "horizon": 1, "split": "train", **given}),
    "fit_normalizer": lambda **given: fit_normalizer(_SERIES, **{"train_fraction": 0.7, **given}),
}


@pytest.mark.parametrize("entry,name,value", [
    ("generate_synthetic_market", "seed", 1.5), ("generate_synthetic_market", "seed", True),
    ("generate_synthetic_market", "seed", -1), ("generate_synthetic_market", "stocks", True),
    ("generate_synthetic_market", "stocks", 2.5), ("generate_synthetic_market", "stocks", "a"),
    ("generate_synthetic_market", "length", 100.0),
    ("generate_synthetic_market", "shared_strength", "a"),
    ("make_windows", "lookback", True), ("make_windows", "lookback", 16.0),
    ("fit_normalizer", "train_fraction", "a"),
])
def test_a_data_entry_point_rejects_a_value_of_the_wrong_type_as_a_csti_error(entry, name, value):
    # seed 1.5 or True used to give seed 1's market, stocks=True one stock and
    # lookback=True 1-row windows; the others escaped as a raw TypeError or ValueError
    with pytest.raises(ContractViolation,
                       match=f"^{name}: .* required, got {re.escape(repr(value))}$"):
        _DATA_CALLS[entry](**{name: value})


@pytest.mark.parametrize("fractions", [(1.5, -0.3, -0.2), (True, 0, 0), ("a", 1, 1), (0.5, 0.5)],
                         ids=["negative", "bool", "string", "two"])
def test_fractions_other_than_three_positive_numbers_summing_to_1_are_rejected(fractions):
    # the spec always demanded this, but split_bounds checked only the count and the sum:
    # (1.5, -0.3, -0.2) made the train split of a 100-row series every row, its test rows
    # included, (True, 0, 0) passed and ("a", 1, 1) escaped as a raw TypeError
    series = StockSeries("TST", np.column_stack([np.arange(100.0), np.arange(100.0) + 1.0]))
    message = (f"^fractions: three positive numbers summing to 1 required, "
               f"got {re.escape(repr(fractions))}$")
    with pytest.raises(ContractViolation, match=message):
        split_bounds(series.T, fractions)
    with pytest.raises(ContractViolation, match=message):
        make_windows(series, 8, 1, "train", fractions)
