import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csti.data import StockSeries, generate_synthetic_market, save_series_csv
from csti.errors import ContractViolation, CstiError, DivergenceError, SpecValidationError
from csti.experiment import (
    load_round_checkpoint,
    main,
    run_experiment,
    save_round_checkpoint,
    validate_spec,
    validate_spec_dict,
)
from csti.models import MODEL_KINDS, build_model, load_checkpoint, save_checkpoint
from csti.numerics import load_param_vector, save_container, save_param_vector

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def spec_doc(out_dir, **overrides):
    doc = {
        "seed": 5,
        "out_dir": str(out_dir),
        "data": {"source": "synthetic", "stocks": 3, "length": 240,
                 "shared_strength": 0.7},
        "features": ["without_sentiment"],
        "models": ["dlinear"],
        "strategies": ["normal", "csti"],
        "training": {"merge_rounds": 3, "finetune_epochs": 3},
    }
    doc.update(overrides)
    return doc


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_empty_spec_reports_every_required_field(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SpecValidationError) as err:
        validate_spec(path)
    text = " ".join(err.value.errors)
    for field in ("out_dir", "data", "models", "strategies"):
        assert field in text


def test_negative_lambda_names_the_field(tmp_path):
    doc = spec_doc(tmp_path / "out")
    doc["training"]["lambda"] = -1
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert any("lambda" in e and ">= 0" in e for e in err.value.errors)


def test_out_of_scope_model_kind_is_called_out(tmp_path):
    doc = spec_doc(tmp_path / "out", models=["timesnet"])
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    joined = " ".join(err.value.errors)
    assert "timesnet" in joined and "out of scope" in joined
    assert "dlinear" in joined  # supported kinds enumerated

    doc = spec_doc(tmp_path / "out", models=["nosuchmodel"])
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc, "spec2.json"))
    joined = " ".join(err.value.errors)
    assert "nosuchmodel" in joined and "paifilter" in joined


def test_missing_csv_fails_validation_before_training(tmp_path):
    doc = spec_doc(tmp_path / "out")
    doc["data"] = {"source": "csv", "paths": ["nope.csv"]}
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert any("not found" in e for e in err.value.errors)


def _same_stem_csvs(tmp_path):
    # two directories, one file name: both load as the same stock id
    market = generate_synthetic_market(2, 240, 0.6, seed=8)
    for sub, series in zip(("a", "b"), market):
        (tmp_path / sub).mkdir()
        save_series_csv(series, tmp_path / sub / "ACME.csv")
    return ["a/ACME.csv", "b/ACME.csv"]


def test_csv_paths_with_the_same_stem_fail_validation(tmp_path):
    doc = spec_doc(tmp_path / "out")
    doc["data"] = {"source": "csv", "paths": _same_stem_csvs(tmp_path)}
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert err.value.errors == [
        "data.paths: a/ACME.csv and b/ACME.csv both load as stock id 'ACME'"]


def test_csv_path_that_is_not_a_string_names_the_field(tmp_path):
    doc = spec_doc(tmp_path / "out")
    doc["data"] = {"source": "csv", "paths": [7]}
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert err.value.errors == ["data.paths: file path string required, got 7"]


def test_validation_collects_multiple_errors_at_once(tmp_path):
    doc = spec_doc(tmp_path / "out", models=["timesnet"], strategies=["foo"])
    doc["training"]["lambda"] = -2
    doc["jobs"] = 0
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert len(err.value.errors) >= 4


@pytest.mark.parametrize("field", ["learning_rate", "alpha", "lambda", "merge_rounds"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_training_numbers_name_the_field(tmp_path, field, value):
    doc = spec_doc(tmp_path / "out")
    doc["training"][field] = value  # json writes Infinity / NaN, and json reads them back
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert any(e.startswith(f"training.{field}:") for e in err.value.errors)


@pytest.mark.parametrize("path", [
    ("data", "stocks"), ("data", "length"), ("window", "lookback"), ("window", "horizon"),
    ("training", "merge_rounds"), ("training", "batch_size"), ("training", "learning_rate"),
    ("training", "epochs_total"), ("seed",), ("jobs",),
], ids=".".join)
def test_boolean_numbers_name_the_field(tmp_path, path):
    # JSON true is a Python int: "jobs": true used to validate, then fail or
    # run as 1 once training had started
    doc = spec_doc(tmp_path / "out")
    doc.setdefault("window", {})
    section = doc if len(path) == 1 else doc[path[0]]
    section[path[-1]] = True
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert any(e.startswith(".".join(path) + ":") for e in err.value.errors)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
def test_a_seed_that_is_not_an_integer_of_at_least_zero_names_the_field(tmp_path, seed):
    # -1 used to validate, then fail in numpy's SeedSequence with a raw ValueError
    doc = spec_doc(tmp_path / "out", seed=seed)
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert "seed: integer >= 0 required" in err.value.errors


@pytest.mark.parametrize("weights", [[1, -1, 1], [0, 0, 0]])
def test_bad_merge_weights_name_the_field(tmp_path, weights):
    doc = spec_doc(tmp_path / "out")
    doc["training"]["merge_weights"] = weights
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert any(e.startswith("training.merge_weights") for e in err.value.errors)


def _empty_csvs(directory, count):
    # validation only checks that each path is a file
    for k in range(count):
        (directory / f"S{k}.csv").touch()
    return [f"S{k}.csv" for k in range(count)]


def test_merge_weights_need_one_entry_per_stock(tmp_path):
    # 2 weights on 3 stocks used to validate, then stop the run at the first csti cell
    doc = spec_doc(tmp_path / "out")
    doc["training"]["merge_weights"] = [1, 1]
    with pytest.raises(SpecValidationError) as err:
        validate_spec_dict(doc)
    assert err.value.errors == [
        "training.merge_weights: one weight per stock required, got 2 for 3 stocks"]
    doc["data"] = {"source": "csv", "paths": _empty_csvs(tmp_path, 2)}
    assert validate_spec_dict(doc, base_dir=tmp_path).merge_weights == (1.0, 1.0)
    doc["training"]["merge_weights"] = [1, 1, 1]
    with pytest.raises(SpecValidationError, match="got 3 for 2 stocks"):
        validate_spec_dict(doc, base_dir=tmp_path)


@pytest.mark.parametrize("training", [
    {"merge_rounds": 3, "finetune_epochs": 3, "epochs_total": 2},
    {"merge_rounds": 0, "finetune_epochs": 0},
], ids=["epochs_total", "zero_csti_budget"])
def test_a_normal_budget_below_the_stock_count_names_epochs_total(training):
    # it used to validate, then fail after the csti cell had been written
    doc = spec_doc("out", strategies=["csti", "normal"], training=training)
    budget = training.get("epochs_total", 0)
    with pytest.raises(SpecValidationError) as err:
        validate_spec_dict(doc)
    assert err.value.errors == [
        f"training.epochs_total: the normal budget of {budget} epochs is below one epoch "
        "per stock; >= 3 required"]
    assert validate_spec_dict(spec_doc("out", strategies=["csti"], training=training))


@pytest.mark.parametrize("key,value", [("merge_rounds", 2.0), ("batch_size", 64.0),
                                       ("finetune_epochs", 3.0),
                                       ("local_epochs_per_round", 1.0)])
def test_an_integral_float_count_names_the_field(key, value):
    doc = spec_doc("out")
    doc["training"][key] = value
    with pytest.raises(SpecValidationError) as err:
        validate_spec_dict(doc)
    low = 1 if key in ("batch_size", "local_epochs_per_round") else 0
    assert err.value.errors == [f"training.{key}: integer >= {low} required"]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=8,
)
_SECTION_KEYS = {
    "data": ("source", "stocks", "length", "shared_strength", "paths"),
    "window": ("lookback", "horizon", "fractions"),
    "training": ("merge_rounds", "finetune_epochs", "local_epochs_per_round", "learning_rate",
                 "momentum", "alpha", "lambda", "batch_size", "epochs_total", "merge_weights",
                 "shared_init"),
    "model_hyper": MODEL_KINDS,
}


@settings(max_examples=300, deadline=None)
@given(section=st.sampled_from(sorted(_SECTION_KEYS)), data=st.data())
def test_any_json_value_in_a_section_gives_a_spec_or_a_spec_validation_error(section, data):
    # "window": 5 and "training": [1] used to escape as a raw AttributeError,
    # and integers past the float range as a raw OverflowError or TypeError
    fields = st.dictionaries(st.sampled_from(_SECTION_KEYS[section]),
                             _JSON_VALUES | st.sampled_from(["synthetic", "csv"]), max_size=4)
    value = data.draw(_JSON_VALUES | fields, label=section)
    try:
        validate_spec_dict(spec_doc("out", **{section: value}))
    except SpecValidationError as err:
        errors = err.errors
    else:
        errors = []
    if not isinstance(value, dict) and (value is not None or section == "data"):
        assert any(e.startswith(f"{section}:") for e in errors), errors


_TOP_LEVEL_VALUES = {
    "seed": st.integers(), "jobs": st.integers(), "out_dir": st.text(max_size=6),
    "models": st.lists(st.sampled_from(MODEL_KINDS + ("timesnet",)), max_size=3),
    "strategies": st.lists(st.sampled_from(["normal", "csti"]), max_size=3),
    "features": st.lists(st.sampled_from(["with_sentiment", "without_sentiment"]), max_size=3),
    "normal_eval": st.sampled_from(["final", "snapshot"]),
    "denormalized_metrics": st.booleans(),
}


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_TOP_LEVEL_VALUES)), data=st.data())
def test_any_json_value_in_a_top_level_field_gives_a_spec_or_a_spec_validation_error(key,
                                                                                    data):
    doc = spec_doc("out")
    doc[key] = data.draw(_JSON_VALUES | _TOP_LEVEL_VALUES[key], label=key)
    try:
        spec = validate_spec_dict(doc)
    except SpecValidationError as err:
        assert err.errors
    else:
        assert spec.echo()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("csvs")
    _empty_csvs(directory, 4)
    return directory


_FRACTIONS = st.sampled_from([[0.7, 0.1, 0.2], [0.6, 0.2, 0.2], [0.5, 0.25, 0.25]])
_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_echo_of_a_valid_spec_validates_to_the_same_echo(csv_dir, data):
    draw = data.draw
    if draw(st.booleans(), label="csv"):
        paths = draw(st.lists(st.sampled_from([f"S{k}.csv" for k in range(4)]), min_size=1,
                              max_size=4, unique=True))
        source = {"source": "csv", "paths": [draw(st.sampled_from([p, str(csv_dir / p)]))
                                              for p in paths]}
        stocks = len(paths)
    else:
        stocks = draw(st.integers(1, 6))
        source = {"source": "synthetic", "stocks": stocks, "length": draw(st.integers(64, 900)),
                  "shared_strength": draw(_UNIT)}
    training = draw(st.fixed_dictionaries({}, optional={
        "merge_rounds": st.integers(0, 6), "finetune_epochs": st.integers(0, 6),
        "local_epochs_per_round": st.integers(1, 3),
        "learning_rate": st.floats(1e-6, 1.0), "momentum": st.floats(0.0, 0.99),
        "alpha": st.floats(0.1, 2.0), "lambda": _UNIT, "batch_size": st.integers(1, 128),
        "epochs_total": st.none() | st.integers(1, 40),
        "merge_weights": st.none() | st.lists(st.integers(1, 3) | st.floats(0.5, 2.0),
                                              min_size=stocks, max_size=stocks),
        "shared_init": st.booleans()}))
    doc = {
        "out_dir": "out", "data": source, "training": training,
        "seed": draw(st.integers(0, 2**40)), "jobs": draw(st.integers(1, 8)),
        "models": draw(st.lists(st.sampled_from(MODEL_KINDS), min_size=1, max_size=4)),
        "strategies": draw(st.lists(st.sampled_from(["normal", "csti"]), min_size=1,
                                    max_size=2)),
        "features": draw(st.lists(st.sampled_from(["with_sentiment", "without_sentiment"]),
                                  min_size=1, max_size=2)),
        "window": {"lookback": draw(st.integers(4, 32)), "horizon": draw(st.integers(1, 4)),
                   "fractions": draw(_FRACTIONS)},
        "normal_eval": draw(st.sampled_from(["final", "snapshot"])),
        "denormalized_metrics": draw(st.booleans()),
        "model_hyper": draw(st.sampled_from([{}, None, {"frets": {"hidden": 8}}])),
    }
    budget = training.get("epochs_total") or (
        training.get("merge_rounds", 50) * training.get("local_epochs_per_round", 1)
        + training.get("finetune_epochs", 50))
    assume(budget >= stocks)  # a csti-only spec may echo an epochs_total that fails
    echo = validate_spec_dict(doc, base_dir=csv_dir).echo()
    assert validate_spec_dict(json.loads(json.dumps(echo))).echo() == echo


@pytest.mark.parametrize("section", ["window", "training", "model_hyper"])
def test_an_omitted_or_null_section_means_its_defaults(section):
    omitted = spec_doc("out")
    omitted.pop(section, None)
    assert validate_spec_dict(spec_doc("out", **{section: None})) == validate_spec_dict(omitted)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def test_cell_arithmetic_and_output_tree(tmp_path):
    out = tmp_path / "out"
    doc = spec_doc(out, features=["with_sentiment", "without_sentiment"])
    spec = validate_spec(write_spec(tmp_path, doc))
    summary = run_experiment(spec)
    assert len(summary) == 4  # 2 strategies x 2 feature sets
    for cell in summary:
        cell_dir = out / cell
        assert (cell_dir / "report.json").is_file()
        assert (cell_dir / "trace.csv").is_file()
        assert list(cell_dir.glob("regression-*.csv"))
    assert (out / "summary.csv").is_file()
    ckpts = sorted((out / "dlinear/csti/without_sentiment/checkpoints").glob("round-*.pvec"))
    assert len(ckpts) == 3
    round_index, pvec = load_round_checkpoint(ckpts[-1])
    assert round_index == 3 and len(pvec) > 0


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    spec = validate_spec(write_spec(tmp_path, spec_doc(out)))
    run_experiment(spec)
    report = out / "dlinear/csti/without_sentiment/report.json"
    first = report.read_bytes()
    run_experiment(spec)
    assert report.read_bytes() == first


def test_partial_results_preserved_on_late_failure(tmp_path, monkeypatch):
    out = tmp_path / "out"
    spec = validate_spec(write_spec(tmp_path, spec_doc(out)))

    import csti.experiment as experiment_mod

    def explode(*args, **kwargs):
        raise DivergenceError("boom", stock_id="SYN000")

    monkeypatch.setattr(experiment_mod, "run_csti", explode)
    with pytest.raises(DivergenceError):
        run_experiment(spec)
    # the earlier (normal) cell completed and its files survived
    assert (out / "dlinear/normal/without_sentiment/report.json").is_file()
    assert not (out / "dlinear/csti/without_sentiment/report.json").exists()


def test_csv_source_end_to_end(tmp_path):
    market = generate_synthetic_market(2, 240, 0.6, seed=8)
    csv_dir = tmp_path / "csvs"
    csv_dir.mkdir()
    for series in market:
        save_series_csv(series, csv_dir / f"{series.stock_id}.csv")
    out = tmp_path / "out"
    doc = spec_doc(out, features=["with_sentiment"])
    doc["data"] = {"source": "csv",
                   "paths": [f"csvs/{s.stock_id}.csv" for s in market]}
    spec = validate_spec(write_spec(tmp_path, doc))
    assert spec.stocks == 2
    summary = run_experiment(spec)
    assert len(summary) == 2


def test_permuted_csv_paths_give_the_same_csti_reports(tmp_path):
    market = generate_synthetic_market(7, 320, 0.6, seed=8)
    csv_dir = tmp_path / "csvs"
    csv_dir.mkdir()
    for series, rows in zip(market, (320, 300, 280, 260, 240, 220, 200)):
        cut = StockSeries(series.stock_id, series.timestamps[:rows], series.features[:rows])
        save_series_csv(cut, csv_dir / f"{series.stock_id}.csv")
    paths = [f"csvs/{s.stock_id}.csv" for s in market]
    orders = {"given": paths, "reversed": paths[::-1], "rotated": paths[3:] + paths[:3]}
    for name, order in orders.items():
        doc = spec_doc(tmp_path / name, features=["with_sentiment"], strategies=["csti"],
                       models=list(MODEL_KINDS), jobs=3)
        doc["data"] = {"source": "csv", "paths": order}
        doc["training"] = {"merge_rounds": 4, "finetune_epochs": 2}
        run_experiment(validate_spec(write_spec(tmp_path, doc, f"{name}.json")))
    for kind in MODEL_KINDS:
        reports = {}
        for name, order in orders.items():
            doc = json.loads((tmp_path / name / kind / "csti/with_sentiment/report.json")
                             .read_text(encoding="utf-8"))
            # the echoed paths follow the input order; the step counts are keyed by stock
            assert doc["config"].pop("out_dir") == str(tmp_path / name)
            assert [Path(p).name for p in doc["config"]["data"].pop("paths")] == \
                [Path(p).name for p in order]
            steps = doc["training"]["lineage_update_steps"]
            assert set(steps) == {s.stock_id for s in market} and len(set(steps.values())) > 1
            reports[name] = json.dumps(doc, sort_keys=True, indent=2)
        assert reports["reversed"] == reports["given"], kind
        assert reports["rotated"] == reports["given"], kind


# ---------------------------------------------------------------------------
# binary readers: every malformed blob fails with a named error
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def binary_blobs(tmp_path_factory):
    """One valid file of each container type, plus a directory to write variants to.

    Keys are the ids these tests have always had: PVEC a bare parameter
    vector, FMCK a model checkpoint, RNDG a merge round's global model.
    """
    directory = tmp_path_factory.mktemp("blobs")
    model = build_model("texfilter", 8, 2, 3, {"hidden": 3}, seed=5)
    save_param_vector(model.export_params(), directory / "theta.pvec")
    save_checkpoint(model, directory / "model.ckpt")
    save_round_checkpoint(7, model.export_params(), directory / "round-0007.pvec")
    names = {"PVEC": "theta.pvec", "FMCK": "model.ckpt", "RNDG": "round-0007.pvec"}
    return {fmt: (directory / name).read_bytes() for fmt, name in names.items()}, directory


_LOADERS = {"PVEC": load_param_vector, "FMCK": load_checkpoint, "RNDG": load_round_checkpoint}


def _read_blob(fmt, blob, directory):
    path = directory / f"variant-{fmt}.bin"
    path.write_bytes(blob)
    return _LOADERS[fmt](path)


@pytest.mark.parametrize("fmt", list(_LOADERS))
def test_every_proper_prefix_of_a_binary_blob_raises_a_csti_error(fmt, binary_blobs):
    blobs, directory = binary_blobs
    blob = blobs[fmt]
    assert _read_blob(fmt, blob, directory) is not None
    for cut in range(len(blob)):
        # CstiError itself: ContractViolation is also a ValueError
        with pytest.raises(CstiError):
            _read_blob(fmt, blob[:cut], directory)


@pytest.mark.parametrize("fmt", list(_LOADERS))
def test_every_single_byte_flip_of_a_binary_blob_raises_a_csti_error(fmt, binary_blobs):
    blobs, directory = binary_blobs
    for at in range(len(blobs[fmt])):
        for mask in (0x01, 0x80, 0xFF):
            blob = bytearray(blobs[fmt])
            blob[at] ^= mask
            with pytest.raises(CstiError):
                _read_blob(fmt, bytes(blob), directory)


@pytest.mark.parametrize("fmt", list(_LOADERS))
def test_an_appended_byte_or_a_blob_of_another_type_raises_a_csti_error(fmt, binary_blobs):
    blobs, directory = binary_blobs
    with pytest.raises(CstiError, match="lengths give"):
        _read_blob(fmt, blobs[fmt] + b"\0", directory)
    for other in set(blobs) - {fmt}:
        with pytest.raises(CstiError, match="blob, not"):
            _read_blob(fmt, blobs[other], directory)


def test_a_version_1_round_file_raises_a_contract_violation_naming_it(tmp_path):
    path = tmp_path / "round-0003.pvec"
    path.write_bytes(b"RNDG" + struct.pack("<I", 3) + b"PVEC" + bytes(40))
    with pytest.raises(ContractViolation, match="round-0003.pvec: not a csti container"):
        load_round_checkpoint(path)


def test_a_round_file_with_a_bad_round_index_names_it(tmp_path):
    pvec = build_model("dlinear", 8, 1, 2).export_params()
    save_container(tmp_path / "round.pvec", "round", pvec, round=-1)
    with pytest.raises(ContractViolation, match="round.pvec: round index -1"):
        load_round_checkpoint(tmp_path / "round.pvec")


def _resealed(blob):
    """``blob`` with its trailing CRC-32 recomputed, so an edit reaches the header checks."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def test_checkpoint_with_unknown_kind_names_it(binary_blobs):
    blobs, directory = binary_blobs
    blob = _resealed(blobs["FMCK"].replace(b'"kind": "texfilter"', b'"kind": "texfilteX"'))
    with pytest.raises(ContractViolation, match="texfilteX"):
        _read_blob("FMCK", blob, directory)


def _edited_header(blob, edit):
    """``blob`` (a checkpoint) with its JSON header passed through ``edit``, resealed."""
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    return _resealed(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen :])


@pytest.mark.parametrize("edit,message", [
    (lambda h: h.update(lookback=0), "lookback"),
    (lambda h: h.update(lookback=8.5), "lookback"),
    (lambda h: h.update(horizon=True), "horizon"),
    (lambda h: h.update(n_features=4), "feature count"),
    (lambda h: h["hyper"].update(period=-1.0), "period"),
    (lambda h: h["hyper"].update(harmonics=2.0), "harmonics"),
    (lambda h: h["hyper"].update(use_anchor=1), "use_anchor"),
    (lambda h: h["hyper"].pop("use_anchor"), "missing hyperparameter 'use_anchor'"),
    (lambda h: h["hyper"].update(extra=1), "unknown hyperparameter 'extra'"),
    (lambda h: h.update(hyper=[]), "mapping"),
], ids=["lookback-0", "lookback-8.5", "horizon-bool", "features-4", "period-negative",
        "harmonics-float", "use_anchor-int", "use_anchor-missing", "unknown-key", "hyper-list"])
def test_checkpoint_header_goes_through_build_model_checks(tmp_path, edit, message):
    model = build_model("dlinear", 8, 1, 2, seed=3)
    save_checkpoint(model, tmp_path / "ok.ckpt")
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_edited_header((tmp_path / "ok.ckpt").read_bytes(), edit))
    with pytest.raises(ContractViolation, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_flipped_checkpoint_byte_raises_a_csti_error(kind, tmp_path_factory, data):
    directory = tmp_path_factory.getbasetemp()
    save_checkpoint(build_model(kind, 8, 2, 3, seed=5), directory / f"flip-{kind}.ckpt")
    blob = bytearray((directory / f"flip-{kind}.ckpt").read_bytes())
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = directory / f"flipped-{kind}.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CstiError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _run_cli(args, cwd, python_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *python_args, "-m", "csti", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_cli_success_exit_code(tmp_path):
    write_spec(tmp_path, spec_doc("out"))
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.csv").is_file()


def test_cli_validation_exit_code(tmp_path):
    doc = spec_doc("out", models=["timesnet"])
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "out of scope" in proc.stderr


def test_cli_negative_merge_weight_exit_code(tmp_path):
    doc = spec_doc("out")
    doc["training"]["merge_weights"] = [1, -1, 1]
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "training.merge_weights" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_cli_merge_weights_for_another_stock_count_exit_code(tmp_path, source):
    doc = spec_doc("out")
    doc["training"]["merge_weights"] = [1, 1]
    args = ["spec.json"]
    if source == "csv":  # 2 weights on the 1 stock that --stocks leaves
        doc["data"] = {"source": "csv", "paths": _empty_csvs(tmp_path, 3)}
        args += ["--stocks", "1"]
    write_spec(tmp_path, doc)
    proc = _run_cli(args, cwd=tmp_path)
    assert proc.returncode == 1
    assert "spec error: training.merge_weights: one weight per stock required" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list((tmp_path / "out").rglob("report.json"))


def test_cli_overflow_in_training_exit_code_with_warnings_as_errors(tmp_path):
    # weights this large overflow the squared errors of round 2, which used to
    # escape as a RuntimeWarning: a traceback under -W error, noise without it
    doc = spec_doc("out", strategies=["csti"])
    doc["training"]["merge_weights"] = [1e308, 1e308, 1e308]
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path, python_args=("-W", "error"))
    assert proc.returncode == 2
    assert "batch loss inf exceeded guard" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("field", ["lambda", "learning_rate"])
def test_cli_infinite_training_number_exit_code(tmp_path, field):
    doc = spec_doc("out")
    doc["training"][field] = float("inf")
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert f"training.{field}" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_bad_model_hyper_exit_code_before_any_cell(tmp_path):
    # frets is listed after dlinear, so its entry used to fail only after
    # every dlinear cell had trained and been written
    doc = spec_doc("out", models=["dlinear", "frets"], model_hyper={"frets": 5})
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "model_hyper.frets" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("hyper", [{"frets": {"hidden": 0}}, {"dlinear": {"depth": 2}},
                                   {"dlinear": {"period": -1.0}}])
def test_a_bad_model_hyper_entry_names_its_kind(tmp_path, hyper):
    doc = spec_doc(tmp_path / "out", models=["dlinear", "frets"], model_hyper=hyper)
    with pytest.raises(SpecValidationError, match=f"model_hyper.{next(iter(hyper))}"):
        validate_spec_dict(doc)


def test_cli_missing_spec_exit_code(tmp_path):
    proc = _run_cli(["nope.json"], cwd=tmp_path)
    assert proc.returncode == 1


def test_cli_overrides(tmp_path):
    write_spec(tmp_path, spec_doc("out"))
    proc = _run_cli(
        ["spec.json", "--out", "alt", "--strategy", "normal", "--stocks", "2",
         "--seed", "9"],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "alt/dlinear/normal/without_sentiment/report.json").read_text())
    assert report["config"]["seed"] == 9
    assert report["config"]["data"]["stocks"] == 2
    assert not (tmp_path / "alt/dlinear/csti").exists()


@pytest.mark.parametrize("where", ["spec", "flag"])
def test_cli_negative_seed_exit_code(tmp_path, where):
    write_spec(tmp_path, spec_doc("out", seed=-1 if where == "spec" else 5))
    proc = _run_cli(["spec.json", *(["--seed", "-1"] if where == "flag" else [])], cwd=tmp_path)
    assert proc.returncode == 1
    assert "spec error: seed: integer >= 0 required" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stocks", ["-1", "0", "3"])
def test_cli_stocks_outside_the_csv_paths_exit_code(tmp_path, stocks):
    market = generate_synthetic_market(2, 240, 0.6, seed=8)
    for series in market:
        save_series_csv(series, tmp_path / f"{series.stock_id}.csv")
    doc = spec_doc("out")
    doc["data"] = {"source": "csv", "paths": [f"{s.stock_id}.csv" for s in market]}
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json", "--stocks", stocks], cwd=tmp_path)
    assert proc.returncode == 1
    assert f"spec error: --stocks: {stocks} is not in 1..2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,value", [("window", 5), ("training", [1])])
def test_cli_section_that_is_not_an_object_exit_code(tmp_path, section, value):
    write_spec(tmp_path, spec_doc("out", **{section: value}))
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert f"spec error: {section}: object (or null) required" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_stocks_on_a_spec_whose_data_is_not_an_object_exit_code(tmp_path):
    doc = spec_doc("out")
    doc["data"] = 5
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json", "--stocks", "2"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "spec error: data" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_divergence_exit_code(tmp_path):
    doc = spec_doc("out")
    doc["training"]["learning_rate"] = 80.0
    doc["models"] = ["frets"]
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "diverged" in proc.stderr


def test_cli_non_utf8_spec_exit_code(tmp_path):
    (tmp_path / "spec.json").write_bytes(b'{"out_dir": "\xff\xfe"}')
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "UTF-8" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_non_utf8_csv_exit_code(tmp_path):
    market = generate_synthetic_market(2, 240, 0.6, seed=8)
    for series in market:
        save_series_csv(series, tmp_path / f"{series.stock_id}.csv")
    bad = tmp_path / f"{market[1].stock_id}.csv"
    bad.write_bytes(bad.read_bytes().replace(b"\n", b"\xff\n", 1))
    doc = spec_doc("out", features=["with_sentiment"])
    doc["data"] = {"source": "csv", "paths": [f"{s.stock_id}.csv" for s in market]}
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert bad.name in proc.stderr and "byte offset" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_csv_cell_over_the_field_limit_exit_code(tmp_path):
    market = generate_synthetic_market(2, 240, 0.6, seed=8)
    for series in market:
        save_series_csv(series, tmp_path / f"{series.stock_id}.csv")
    bad = tmp_path / f"{market[0].stock_id}.csv"
    bad.write_bytes(bad.read_bytes() + b"2030-01-01,1," + b"9" * 131_073 + b"\n")
    doc = spec_doc("out")
    doc["data"] = {"source": "csv", "paths": [f"{s.stock_id}.csv" for s in market]}
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert bad.name in proc.stderr and "line 242" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_csv_paths_with_the_same_stem_exit_code(tmp_path):
    doc = spec_doc("out")
    doc["data"] = {"source": "csv", "paths": _same_stem_csvs(tmp_path)}
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "spec error: data.paths: a/ACME.csv and b/ACME.csv" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_blank_spec_reports_missing_fields(tmp_path):
    (tmp_path / "spec.json").write_text("  \n", encoding="utf-8")
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "out_dir" in proc.stderr and "not valid JSON" not in proc.stderr
