"""The benchmark's three workloads: inputs from a seed, one timed run, checks.

Every workload exposes the same five members, which ``run.py`` drives:

* ``make_inputs(seed, work)`` builds the raw inputs (untimed benchmark code);
* ``setup(raw)`` turns them into windowed datasets through ``csti`` (``setup_s``);
* ``expected_steps(inputs)`` derives the SGD step count from the config;
* ``run(inputs, seed, out_dir)`` is the timed section (``wall_s``);
* ``cells`` and ``mse_ceiling`` feed the output checks, and ``jobs`` is
  the number of trainer threads.

All workloads use lookback 16, horizon 1, batch 64 and the ``CstiConfig``
defaults (50 merge rounds, 50 fine-tune epochs, lr 0.01, momentum 0.9,
lambda 0.01).
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

from csti import data, experiment, metrics, models, training

from layers import count_steps
from tracer import Tracer

LOOKBACK = 16
HORIZON = 1
BATCH = 64
FRACTIONS = (0.7, 0.1, 0.2)
SHARED_STRENGTH = 0.7
FEATURE_SETS = ("with_sentiment", "without_sentiment")
STRATEGIES = ("normal", "csti")


class Outcome(NamedTuple):
    """What one timed run produced, before the harness checks it."""

    steps: int  # SGD updates summed over all lineages and cells
    train_s: float  # time spent inside run_csti / run_normal
    test_mse: float  # macro test MSE averaged over the cells
    digest: str  # hash of the final global parameters
    problems: list  # output checks that failed inside the run


def check_outcome(outcome: Outcome, expected_steps: int, mse_ceiling: float) -> list:
    """Output checks shared by all workloads; returns the failures found."""
    problems = list(outcome.problems)
    if outcome.steps != expected_steps:
        problems.append(f"training.steps {outcome.steps} != expected {expected_steps}")
    if not (math.isfinite(outcome.test_mse) and outcome.test_mse <= mse_ceiling):
        problems.append(f"test_mse {outcome.test_mse!r} not finite or above {mse_ceiling}")
    return problems


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _batches(datasets) -> int:
    return sum(math.ceil(ds.n_windows / BATCH) for ds in datasets)


def _split(series):
    params = data.fit_normalizer(series, FRACTIONS[0])
    normed = data.normalize(series, params)
    return (data.make_windows(normed, LOOKBACK, HORIZON, "train", FRACTIONS),
            data.make_windows(normed, LOOKBACK, HORIZON, "test", FRACTIONS))


@dataclass(frozen=True)
class SyntheticCsti:
    """``run_csti`` on a synthetic correlated market, then ``evaluate``."""

    name: str
    kind: str
    stocks: int
    length: int
    jobs: int
    mse_ceiling: float
    merge_rounds: int = 50
    finetune_epochs: int = 50
    cells: int = 1

    def make_inputs(self, seed: int, work: Path) -> int:
        return seed

    def setup(self, seed: int):
        market = data.generate_synthetic_market(self.stocks, self.length, SHARED_STRENGTH, seed)
        train, test = zip(*(_split(series) for series in market))
        return list(train), list(test)

    def expected_steps(self, inputs) -> int:
        return (self.merge_rounds + self.finetune_epochs) * _batches(inputs[0])

    def run(self, inputs, seed: int, out_dir: Path) -> Outcome:
        train, test = inputs
        cfg = training.CstiConfig(stocks=self.stocks, merge_rounds=self.merge_rounds,
                                  finetune_epochs=self.finetune_epochs, seed=seed)
        tick = perf_counter()
        result = training.run_csti(train, self.kind, cfg, jobs=self.jobs)
        train_s = perf_counter() - tick
        report = training.evaluate(result.finetuned, test)
        return Outcome(
            steps=sum(result.trace.lineage_update_steps),
            train_s=train_s,
            test_mse=report.macro["mse"],
            digest=_digest(result.global_params.values),
            problems=[],
        )


class GridInputs(NamedTuple):
    spec_path: Path
    sets: dict  # feature set -> (train datasets, test datasets)
    rows_rejected: int


@dataclass(frozen=True)
class CsvGrid:
    """``validate_spec`` + ``run_experiment`` over CSV stocks, then read-back.

    The grid is one model kind x both strategies x both feature sets. The
    CSV files have unequal lengths and ``bad_rows`` malformed rows each.
    """

    name: str
    kind: str
    lengths: tuple
    bad_rows: int
    mse_ceiling: float
    merge_rounds: int = 50
    finetune_epochs: int = 50
    jobs: int = 1

    @property
    def cells(self) -> int:
        return len(STRATEGIES) * len(FEATURE_SETS)

    def make_inputs(self, seed: int, work: Path):
        csv_dir = work / "csv"
        csv_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, length in enumerate(self.lengths):
            path = csv_dir / f"STK{k:02d}.csv"
            path.write_text(_csv_text(seed, k, length, self.bad_rows), encoding="utf-8")
            paths.append(path)
        spec = {
            "out_dir": str(work / "out"),  # the out_dir run.py empties before each repeat
            "seed": seed,
            "data": {"source": "csv", "paths": [str(p) for p in paths]},
            "models": [self.kind],
            "strategies": list(STRATEGIES),
            "features": list(FEATURE_SETS),
            "window": {"lookback": LOOKBACK, "horizon": HORIZON, "fractions": list(FRACTIONS)},
            "training": {"merge_rounds": self.merge_rounds,
                         "finetune_epochs": self.finetune_epochs,
                         "batch_size": BATCH},
            "jobs": self.jobs,
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
        return spec_path, paths

    def setup(self, raw) -> GridInputs:
        spec_path, paths = raw
        sets = {fs: ([], []) for fs in FEATURE_SETS}
        rejected = 0
        for path in paths:
            series, rejections = data.load_csv_detailed(
                path, with_sentiment=True, min_rows=LOOKBACK + HORIZON + 1)
            rejected += len(rejections)
            for fs in FEATURE_SETS:
                train, test = _split(series if fs == "with_sentiment" else series.drop_sentiment())
                sets[fs][0].append(train)
                sets[fs][1].append(test)
        return GridInputs(spec_path, sets, rejected)

    def expected_steps(self, inputs: GridInputs) -> int:
        epochs = self.merge_rounds + self.finetune_epochs
        per_epoch = _batches(inputs.sets[FEATURE_SETS[0]][0])
        normal_epochs = epochs // len(self.lengths)
        return len(FEATURE_SETS) * (epochs + normal_epochs) * per_epoch

    def run(self, inputs: GridInputs, seed: int, out_dir: Path) -> Outcome:
        trainers = Tracer()
        points = [(experiment, name, name, count_steps) for name in ("run_csti", "run_normal")]
        spec = experiment.validate_spec(inputs.spec_path)
        # run_experiment reports progress on stderr, 52 lines per csti cell
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink), \
                trainers.patch(points):
            summary = experiment.run_experiment(spec)
        train_s = sum(span.end - span.start for span in trainers.spans)
        problems, digest = self._read_back(inputs, Path(spec.out_dir))
        expected_rejects = self.bad_rows * len(self.lengths)
        if inputs.rows_rejected != expected_rejects:
            problems.append(f"rows_rejected {inputs.rows_rejected} != {expected_rejects}")
        return Outcome(
            steps=trainers.counts["training.steps"],
            train_s=train_s,
            test_mse=float(np.mean([m["mse"] for m in summary.values()])),
            digest=digest,
            problems=problems,
        )

    def _read_back(self, inputs: GridInputs, out_dir: Path):
        """Reload every checkpoint and re-score it against report.json."""
        problems, finals = [], []
        for strategy in STRATEGIES:
            for fs in FEATURE_SETS:
                cell = out_dir / self.kind / strategy / fs
                report = json.loads((cell / "report.json").read_text(encoding="utf-8"))
                per_stock = report["evaluation"]["per_stock"]
                test_sets = inputs.sets[fs][1]
                ckpts = cell / "checkpoints"
                if strategy == "csti":
                    rounds = sorted(ckpts.glob("round-*.pvec"))
                    if len(rounds) != self.merge_rounds:
                        problems.append(f"{cell}: {len(rounds)} round checkpoints, "
                                        f"expected {self.merge_rounds}")
                    for r, path in enumerate(rounds, start=1):
                        index, pvec = experiment.load_round_checkpoint(path)
                        if index != r:
                            problems.append(f"{path.name}: round index {index}")
                    finals.append(pvec.values)
                    fitted = [models.load_checkpoint(ckpts / f"finetuned-{ds.stock_id}.ckpt")
                              for ds in test_sets]
                else:
                    final = models.load_checkpoint(
                        ckpts / f"snapshot-{len(test_sets) - 1:02d}.ckpt")
                    finals.append(final.export_params().values)
                    fitted = [final] * len(test_sets)
                for model, ds in zip(fitted, test_sets):
                    rescored = metrics.mse(model.predict_batch(ds.inputs), ds.targets)
                    if rescored != per_stock[ds.stock_id]["mse"]:
                        problems.append(f"{cell}/{ds.stock_id}: checkpoint re-scores to "
                                        f"{rescored!r}, report says {per_stock[ds.stock_id]['mse']!r}")
        return problems, _digest(*finals)


def _csv_text(seed: int, stock: int, length: int, bad_rows: int) -> str:
    """One stock's CSV: date, open, close, sentiment, plus malformed rows.

    The bad rows are one of each kind the loader rejects: a missing cell,
    an unparseable date and a non-numeric cell, cycled ``bad_rows`` times.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), stock, 0xC5F)))
    t = np.arange(length)
    drift = rng.uniform(-0.02, 0.04)
    cycle = rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * t / rng.uniform(15, 60) + rng.uniform(0, 6.3))
    close = 40.0 + drift * t + cycle + np.cumsum(rng.normal(0.0, 0.3, length))
    opens = np.concatenate([[close[0]], close[:-1]]) + rng.normal(0.0, 0.05, length)
    returns = np.concatenate([[0.0], np.diff(close)])
    sentiment = 1.0 / (1.0 + np.exp(-(returns / 0.3 + rng.normal(0.0, 0.3, length))))
    day0 = datetime.date(2012, 1, 2)
    lines = ["date,open,close,sentiment"]
    for i in range(length):
        day = (day0 + datetime.timedelta(days=i)).isoformat()
        lines.append(f"{day},{opens[i]:.4f},{close[i]:.4f},{sentiment[i]:.4f}")
    malformed = ("{day},{o:.4f},,{s:.4f}", "2013-13-{i:02d},{o:.4f},{c:.4f},{s:.4f}",
                 "{day},{o:.4f},n/a,{s:.4f}")
    slots = rng.choice(np.arange(2, length), size=bad_rows, replace=False)
    for j, at in enumerate(sorted(slots, reverse=True)):
        day = (day0 + datetime.timedelta(days=int(at))).isoformat()
        row = malformed[j % len(malformed)].format(
            day=day, i=j % 28 + 1, o=opens[at], c=close[at], s=sentiment[at])
        lines.insert(int(at), row)
    return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # Per-step plumbing dominates (import_params, ParamVector, sgd_step);
        # dlinear makes no DFT calls and its merge is trivial (P=11).
        SyntheticCsti("csti-dlinear-k16", "dlinear", stocks=16, length=600, jobs=1,
                      mse_ceiling=0.01),
        # Scarce data per stock: 2 SGD steps per stock per merge round, so
        # spectral math, per-round orchestration, the fsum merge and GIL
        # contention between the two pool threads are all heavy.
        SyntheticCsti("csti-texfilter-k24-short", "texfilter", stocks=24, length=200, jobs=2,
                      mse_ceiling=0.2),
        # CSV ingest with rejected rows, the normal baseline, unequal stock
        # lengths, bundle writes and checkpoint reads.
        CsvGrid("grid-csv-paifilter", "paifilter", lengths=(400, 600, 800, 1000, 1200, 1400),
                bad_rows=3, mse_ceiling=0.05),
    )
}
