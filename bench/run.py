"""Benchmark of the csti training protocol: one workload, one seed, one result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then repeats the timed
section until S seconds have passed (at least three times), timing
set-up several times along the way, and reports medians of times scaled
to a nominal machine speed (see probe.py). Every repeat's outputs are
checked. With --trace 0 the last stdout line is a JSON object holding
the end-to-end metrics; with --trace 1 untraced and traced repeats
alternate and it holds the per-layer metrics, whose spans go to
.bench_work/spans-<workload>-seed<N>.csv. Run from the repository root;
csti is imported from ./src and nothing is installed.
"""

import os

# One BLAS thread in this process only, set before numpy loads, so that
# threads <= jobs <= nproc: the pool's GIL contention at jobs=2 stays visible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
# Set-up is timed before the first repeat and again after each untraced
# repeat, so its median samples the same stretch of time as wall_s.
SETUP_REPS = 5
SETUP_REPS_BETWEEN = 3
MIN_REPEATS = 3

sys.path.insert(0, str(ROOT / "src"))
try:
    import csti
except ImportError as err:
    sys.exit(f"bench: cannot import csti from {ROOT / 'src'}: {err}")
if Path(csti.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"bench: csti was imported from {csti.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402

import layers  # noqa: E402
from probe import probe_seconds, scaled  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_outcome  # noqa: E402


class Tally:
    """Cells attempted and failed, and the digest every repeat must match."""

    def __init__(self, workload, expected_steps):
        self.workload = workload
        self.expected_steps = expected_steps
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.test_mse = []

    def record(self, outcome):
        self.attempted += self.workload.cells
        if outcome is None:
            self.failed += self.workload.cells
            return
        problems = check_outcome(outcome, self.expected_steps, self.workload.mse_ceiling)
        if self.digest is None:
            self.digest = outcome.digest
        elif outcome.digest != self.digest:
            problems.append(f"final parameters digest {outcome.digest} != {self.digest}")
        for problem in problems:
            print(f"bench: check failed: {problem}", file=sys.stderr)
        if problems:
            self.failed += self.workload.cells
        self.test_mse.append(outcome.test_mse)


def _repeat(workload, raw, inputs, seed, work, tally, tracer=None):
    """One timed section; returns (wall seconds, outcome) or None on failure."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    try:
        if tracer is None:
            tick = perf_counter()
            outcome = workload.run(inputs, seed, out_dir)
            wall = perf_counter() - tick
        else:
            with tracer.patch(layers.patch_points(), layers.COUNTED):
                inputs = workload.setup(raw)
                tick = perf_counter()
                outcome = workload.run(inputs, seed, out_dir)
                wall = perf_counter() - tick
    except Exception:  # a failed cell is counted, and the run goes on
        traceback.print_exc()
        tally.record(None)
        return None
    tally.record(outcome)
    return wall, outcome


def _written(out_dir: Path):
    files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.exists() else []
    return len(files), sum(p.stat().st_size for p in files)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    work = WORK_ROOT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _time_setup(workload, raw, samples, reps, probe_s):
    for _ in range(reps):
        gc.collect()
        tick = perf_counter()
        inputs = workload.setup(raw)
        samples.append((perf_counter() - tick, probe_s))
    return inputs


def _measure(workload, seed, seconds, trace, work):
    raw = workload.make_inputs(seed, work)
    setup_s = []  # (seconds, probe seconds next to them)
    probe_s = probe_seconds()
    inputs = _time_setup(workload, raw, setup_s, SETUP_REPS, probe_s)
    tally = Tally(workload, workload.expected_steps(inputs))

    # plain: (wall, outcome, mean of the probes before and after the repeat)
    plain, traced, layer_rows = [], [], []
    tracer = None
    deadline = perf_counter() + seconds
    while tally.attempted < MIN_REPEATS * workload.cells or perf_counter() < deadline:
        done = _repeat(workload, raw, inputs, seed, work, tally)
        after = probe_seconds()
        if done is not None:
            plain.append((*done, (probe_s + after) / 2))
        probe_s = after
        _time_setup(workload, raw, setup_s, SETUP_REPS_BETWEEN, probe_s)
        if trace:
            tracer = Tracer()
            done = _repeat(workload, raw, inputs, seed, work, tally, tracer)
            after = probe_seconds()
            if done is not None:
                traced.append((*done, (probe_s + after) / 2))
                files, size = _written(work / "out")
                layer_rows.append(layers.summarize(tracer, files, size, done[1].test_mse))
            probe_s = after
    if not plain or (trace and not traced):
        sys.exit(f"bench: every repeat of {workload.name} failed")

    med = statistics.median

    # The probe runs on one core, so it predicts single-threaded work
    # only: set-up always, the timed section when the pool has one thread.
    def timed(seconds, probe):
        return scaled(seconds, probe) if workload.jobs == 1 else seconds

    if trace:
        metrics = {name: (med(row[name][0] for row in layer_rows), unit)
                   for name, (_, unit) in layer_rows[0].items()}
        metrics["trace.overhead"] = (med(timed(w, p) for w, _, p in traced)
                                     / med(timed(w, p) for w, _, p in plain), "ratio")
        WORK_ROOT.mkdir(exist_ok=True)
        tracer.write_csv(WORK_ROOT / f"spans-{workload.name}-seed{seed}.csv")
    else:
        metrics = {
            "setup_s": (med(scaled(t, p) for t, p in setup_s), "s"),
            "wall_s": (med(timed(w, p) for w, _, p in plain), "s"),
            "steps_per_s": (med(o.steps / timed(o.train_s, p) for _, o, p in plain), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"repeats {len(plain)} untraced, {len(traced)} traced")
    extra = {
        "test_mse": (med(tally.test_mse), "norm_price2"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
        "unscaled.setup_s": (med(t for t, _ in setup_s), "s"),
        "unscaled.wall_s": (med(w for w, _, _ in plain), "s"),
        "unscaled.steps_per_s": (med(o.steps / o.train_s for _, o, _ in plain), "1/s"),
        "probe_ms": (1e3 * med(p for _, _, p in plain), "ms"),
    }
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print("untraced repeats wall_s: " + " ".join(f"{w:.3f}" for w, _, _ in plain))
    print("env " + json.dumps(environment(seed), sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
