"""Run-to-run spread of the end-to-end metrics, one fresh process per seed.

    python3 bench/spread.py --workload NAME [--workload NAME ...] --seeds 1-10

For each workload, runs ``bench/run.py --trace 0`` once per seed and
prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json; the same for
the unscaled times and the probe, and the range of test_mse and
failed_frac. Runs one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """Every metric the run printed, bounded or not: name -> value."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            values[parts[0]] = float(parts[1])
    values.update({name: m["value"] for name, m in result["metrics"].items()})
    values["correct"] = result["correct"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)

    for workload in args.workload:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items() if k != "correct"), flush=True)
        print(f"\n{workload}: {len(runs)} seeds ({args.seeds}), "
              f"all correct: {all(r['correct'] for r in runs)}")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        extras = ("unscaled.setup_s", "unscaled.wall_s", "unscaled.steps_per_s", "probe_ms")
        for name in (*bounds, *extras):
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds.get(name, '')} |")
        for name in ("test_mse", "failed_frac"):
            values = [r[name] for r in runs]
            print(f"| {name} | {statistics.median(values):.6g} | min {min(values):.6g} | "
                  f"max {max(values):.6g} | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
