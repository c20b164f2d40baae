import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csti.data import StockSeries, generate_synthetic_market, save_series_csv
from csti.errors import ContractViolation, CstiError, DivergenceError, SpecValidationError
from csti.experiment import (
    load_round_checkpoint,
    main,
    run_experiment,
    save_round_checkpoint,
    validate_spec,
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


@pytest.mark.parametrize("weights", [[1, -1, 1], [0, 0, 0]])
def test_bad_merge_weights_name_the_field(tmp_path, weights):
    doc = spec_doc(tmp_path / "out")
    doc["training"]["merge_weights"] = weights
    with pytest.raises(SpecValidationError) as err:
        validate_spec(write_spec(tmp_path, doc))
    assert any(e.startswith("training.merge_weights") for e in err.value.errors)


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
            # the echoed paths and the per-lineage step counts follow the input order
            assert doc["config"].pop("out_dir") == str(tmp_path / name)
            assert [Path(p).name for p in doc["config"]["data"].pop("paths")] == \
                [Path(p).name for p in order]
            steps = doc["training"].pop("lineage_update_steps")
            assert len(set(steps)) > 1
            reports[name] = (json.dumps(doc, sort_keys=True, indent=2),
                             dict(zip(order, steps)))
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

def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "csti", *args],
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


@pytest.mark.parametrize("field", ["lambda", "learning_rate"])
def test_cli_infinite_training_number_exit_code(tmp_path, field):
    doc = spec_doc("out")
    doc["training"][field] = float("inf")
    write_spec(tmp_path, doc)
    proc = _run_cli(["spec.json"], cwd=tmp_path)
    assert proc.returncode == 1
    assert f"training.{field}" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


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
