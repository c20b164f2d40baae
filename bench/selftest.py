"""Fast self-test of the benchmark harness on tiny configs (a few seconds).

    python3 bench/selftest.py

Checks that an untraced and a traced run emit exactly the metrics that
BENCHMARK.json names, each with its unit, on both workload types; and
that the output checks fail a run when fed a wrong expected step count.
Not collected by pytest: the file name does not match test_*.py.
"""

import json
import shutil
import sys

from run import ROOT, WORK_ROOT, Tally, measure
from workloads import CsvGrid, SyntheticCsti, check_outcome

TINY = (
    SyntheticCsti("tiny-synthetic", "dlinear", stocks=2, length=120, jobs=2,
                  mse_ceiling=10.0, merge_rounds=2, finetune_epochs=2),
    CsvGrid("tiny-grid", "paifilter", lengths=(120, 160), bad_rows=3,
            mse_ceiling=10.0, merge_rounds=2, finetune_epochs=2),
)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in TINY:
        for trace in (False, True):
            result = measure(workload, seed=7, seconds=0, trace=trace)
            label = f"{workload.name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: outputs not correct: {result['attempted']} attempted, "
                              f"{result['failed']} failed")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != wanted[trace]:
                missing = set(wanted[trace]) - set(emitted)
                extra = set(emitted) - set(wanted[trace])
                wrong = {n for n in set(emitted) & set(wanted[trace])
                         if emitted[n] != wanted[trace][n]}
                errors.append(f"{label}: missing {sorted(missing)}, extra {sorted(extra)}, "
                              f"wrong unit {sorted(wrong)}")

    workload = TINY[0]
    work = WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workload.setup(workload.make_inputs(7, work))
        outcome = workload.run(inputs, 7, work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = workload.expected_steps(inputs)
    if check_outcome(outcome, expected, workload.mse_ceiling):
        errors.append("checks fail on a correct run")
    wrong = check_outcome(outcome, expected + 1, workload.mse_ceiling)
    if not any("training.steps" in problem for problem in wrong):
        errors.append("a wrong expected step count passed the checks")
    print("selftest: the next check failure is expected")
    tally = Tally(workload, expected + 1)
    tally.record(outcome)
    if tally.failed != workload.cells:
        errors.append("a wrong expected step count did not count as a failed cell")

    for error in errors:
        print(f"selftest: FAIL: {error}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
