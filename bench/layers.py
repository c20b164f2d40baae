"""Per-layer metrics: where the traced run patches ``csti``, and what it reports.

Each patch point wraps a public name where its caller looks it up, so a
name imported into ``csti.experiment`` is patched there as well as in
its home module. Metrics are per iteration of the workload (set-up plus
the timed section); "busy" sums span durations over all threads, so it
can exceed wall time when the pool runs two trainers at once.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from csti import data, experiment, models, numerics, training


def _windows(args, kwargs, result):
    return {"data.make_windows.windows": result.n_windows}


def _csv_rows(args, kwargs, result):
    series, rejections = result
    return {"data.load_csv.rows": series.T, "data.load_csv.rows_rejected": len(rejections)}


def count_steps(args, kwargs, result):
    return {"training.steps": sum(result.trace.lineage_update_steps)}


def _file_bytes(position, name):
    def measure(args, kwargs, result):
        return {name: os.path.getsize(args[position])}
    return measure


def patch_points():
    """(owner, attribute, span name, measure) for every traced layer boundary."""
    points = [
        (data, "generate_synthetic_market", "data.generate", None),
        (data, "load_csv_detailed", "data.load_csv", _csv_rows),
        (experiment, "validate_spec", "experiment.validate_spec", None),
        (experiment, "save_round_checkpoint", "experiment.save_round_checkpoint",
         _file_bytes(2, "experiment.save_round_checkpoint.bytes")),
        (experiment, "load_round_checkpoint", "experiment.load_round_checkpoint", None),
        (experiment, "save_checkpoint", "models.save_checkpoint",
         _file_bytes(1, "models.save_checkpoint.bytes")),
        (models, "load_checkpoint", "models.load_checkpoint",
         _file_bytes(0, "models.load_checkpoint.bytes")),
        (experiment, "write_report_json", "metrics.write_report_json", None),
        (experiment, "export_regression_series", "metrics.export_regression_series", None),
        (experiment, "write_trace_csv", "training.write_trace_csv", None),
        (training, "train_local", "training.train_local", None),
        (training, "axpy_merge", "numerics.axpy_merge", None),
        (training, "sgd_step", "numerics.sgd_step", None),
        (models.ForecastModel, "import_params", "models.import_params", None),
        (models.ForecastModel, "loss_and_gradient", "models.loss_and_gradient", None),
    ]
    for module in (data, experiment):
        points += [
            (module, "fit_normalizer", "data.normalize", None),
            (module, "normalize", "data.normalize", None),
            (module, "make_windows", "data.make_windows", _windows),
        ]
    for module in (training, experiment):
        points += [
            (module, "run_csti", "training.run_csti", count_steps),
            (module, "run_normal", "training.run_normal", count_steps),
            (module, "evaluate", "training.evaluate", None),
        ]
    points += [(cls, "predict_batch", "models.predict_batch", None)
               for cls in models.ForecastModel.__subclasses__()]
    points += [(numerics, name, "numerics.dft", None)
               for name in ("dft_batch", "dft_batch_adjoint",
                            "real_idft_batch", "real_idft_batch_adjoint")]
    return points


COUNTED = [(numerics.ParamVector, "__init__", "numerics.paramvector")]


def tail_percentile(n: int) -> float:
    """Highest of p99.9 / p99 / p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 90.0


def _pct(values, p) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _rounds(by_name):
    """Merge-round walls, their self time and the two phase walls, in seconds.

    Round r of a run_csti call runs from the first train_local span that
    starts after merge r-1 ends (or after the call starts) to the end of
    merge r; its self time is that wall minus the union of the round's
    train_local spans. The merge phase ends with the last merge.
    """
    walls, self_s, merge_s, finetune_s = [], 0.0, 0.0, 0.0
    merges = sorted(by_name["numerics.axpy_merge"], key=lambda s: s.start)
    locals_ = sorted(by_name["training.train_local"], key=lambda s: s.start)
    for run in by_name["training.run_csti"]:
        prev = run.start
        for merge in (m for m in merges if run.start <= m.start <= run.end):
            inside = [(t.start, t.end) for t in locals_ if prev <= t.start < merge.start]
            begin = min((start for start, _ in inside), default=prev)
            walls.append(merge.end - begin)
            self_s += merge.end - begin - _union(inside)
            prev = merge.end
        if prev > run.start:
            merge_s += prev - run.start
            finetune_s += run.end - prev
    return walls, self_s, merge_s, finetune_s


def summarize(tracer, files_written: int, bytes_written: int, test_mse: float) -> dict:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    counts = tracer.counts

    def calls(name):
        return (len(by_name[name]), "count")

    def busy_ms(name):
        return (1e3 * sum(s.duration for s in by_name[name]), "ms")

    def self_ms(name):
        return (1e3 * sum(s.self_time for s in by_name[name]), "ms")

    def pct(name, p, scale, unit):
        return (scale * _pct([s.duration for s in by_name[name]], p), unit)

    def count(name, unit="count"):
        return (counts[name], unit)

    steps = counts["training.steps"]
    lag = len(by_name["models.loss_and_gradient"])
    walls, round_self, merge_s, finetune_s = _rounds(by_name)
    n_local = len(by_name["training.train_local"])
    return {
        "training.steps": count("training.steps"),
        "numerics.paramvector.per_step":
            (counts["numerics.paramvector"] / steps if steps else 0.0, "1/step"),
        "models.import_params.calls": calls("models.import_params"),
        "models.import_params.per_step":
            (len(by_name["models.import_params"]) / steps if steps else 0.0, "1/step"),
        "models.import_params.busy_ms": busy_ms("models.import_params"),
        "numerics.sgd_step.calls": calls("numerics.sgd_step"),
        "numerics.sgd_step.busy_ms": busy_ms("numerics.sgd_step"),
        "training.train_local.calls": calls("training.train_local"),
        "training.train_local.self_ms": self_ms("training.train_local"),
        "training.train_local.ms_p50": pct("training.train_local", 50, 1e3, "ms"),
        "training.train_local.ms_tail":
            pct("training.train_local", tail_percentile(n_local), 1e3, "ms"),
        "models.loss_and_gradient.calls": calls("models.loss_and_gradient"),
        "models.loss_and_gradient.us_p50": pct("models.loss_and_gradient", 50, 1e6, "us"),
        "models.loss_and_gradient.us_tail":
            pct("models.loss_and_gradient", tail_percentile(lag), 1e6, "us"),
        "models.loss_and_gradient.busy_ms": busy_ms("models.loss_and_gradient"),
        "numerics.dft.calls": calls("numerics.dft"),
        "numerics.dft.busy_ms": busy_ms("numerics.dft"),
        "numerics.axpy_merge.calls": calls("numerics.axpy_merge"),
        "numerics.axpy_merge.ms_p50": pct("numerics.axpy_merge", 50, 1e3, "ms"),
        "numerics.axpy_merge.ms_p80": pct("numerics.axpy_merge", 80, 1e3, "ms"),
        "numerics.axpy_merge.busy_ms": busy_ms("numerics.axpy_merge"),
        "training.round_ms_p50": (1e3 * _pct(walls, 50), "ms"),
        "training.round_ms_p80": (1e3 * _pct(walls, 80), "ms"),
        "training.round_self_ms": (1e3 * round_self, "ms"),
        "training.merge_phase_ms": (1e3 * merge_s, "ms"),
        "training.finetune_phase_ms": (1e3 * finetune_s, "ms"),
        "training.run_normal.ms": busy_ms("training.run_normal"),
        "training.evaluate.ms": busy_ms("training.evaluate"),
        "training.evaluate.test_mse": (test_mse, "norm_price2"),
        "data.generate.ms": busy_ms("data.generate"),
        "data.load_csv.calls": calls("data.load_csv"),
        "data.load_csv.ms": busy_ms("data.load_csv"),
        "data.load_csv.rows": count("data.load_csv.rows"),
        "data.load_csv.rows_rejected": count("data.load_csv.rows_rejected"),
        "data.normalize.ms": busy_ms("data.normalize"),
        "data.make_windows.calls": calls("data.make_windows"),
        "data.make_windows.ms": busy_ms("data.make_windows"),
        "data.make_windows.windows": count("data.make_windows.windows"),
        "experiment.validate_spec.ms": busy_ms("experiment.validate_spec"),
        "experiment.save_round_checkpoint.calls": calls("experiment.save_round_checkpoint"),
        "experiment.save_round_checkpoint.ms": busy_ms("experiment.save_round_checkpoint"),
        "experiment.save_round_checkpoint.bytes":
            count("experiment.save_round_checkpoint.bytes", "bytes"),
        "experiment.load_round_checkpoint.calls": calls("experiment.load_round_checkpoint"),
        "experiment.load_round_checkpoint.ms": busy_ms("experiment.load_round_checkpoint"),
        "models.save_checkpoint.calls": calls("models.save_checkpoint"),
        "models.save_checkpoint.ms": busy_ms("models.save_checkpoint"),
        "models.save_checkpoint.bytes": count("models.save_checkpoint.bytes", "bytes"),
        "models.load_checkpoint.calls": calls("models.load_checkpoint"),
        "models.load_checkpoint.ms": busy_ms("models.load_checkpoint"),
        "models.load_checkpoint.bytes": count("models.load_checkpoint.bytes", "bytes"),
        "models.predict_batch.calls": calls("models.predict_batch"),
        "models.predict_batch.busy_ms": busy_ms("models.predict_batch"),
        "metrics.write_report_json.ms": busy_ms("metrics.write_report_json"),
        "metrics.export_regression_series.calls": calls("metrics.export_regression_series"),
        "metrics.export_regression_series.ms": busy_ms("metrics.export_regression_series"),
        "training.write_trace_csv.ms": busy_ms("training.write_trace_csv"),
        "experiment.files_written": (files_written, "count"),
        "experiment.bytes_written": (bytes_written, "bytes"),
    }
