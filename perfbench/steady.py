"""Steadiness check: run each workload repeatedly and compare two sets.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads verify --runs 5 --sets 1

Every run takes its own seed.  For each workload and end-to-end metric
it prints the median and quartiles of each set, the spread (quartile
distance over the median) and, with two sets, whether the second
set's median is within the metric's bound of the first in the worse
direction.  A spread passes when it is within the bound (``setup_s``'s
spread is reported but not judged).  The failed share of operations
must be identical between sets.  Exits 1 when anything fails.  The raw
results go to ``.perfbench/steady-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import OUT_DIR, ROOT, RUN_PY

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed",
           str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    raw: dict = {}
    ok = True
    for workload in workloads:
        sets = []
        for index in range(args.sets):
            first = 1 + index * args.runs
            runs = [one_run(workload, seed)
                    for seed in range(first, first + args.runs)]
            sets.append(runs)
            for run in runs:
                if not run["correct"]:
                    print(f"{workload}: a run reported incorrect output")
                    ok = False
        raw[workload] = sets
        shares = {run["failed"] / run["attempted"]
                  for runs in sets for run in runs}
        walls = [run["wall_s"] for runs in sets for run in runs]
        print(f"\n{workload}: {args.sets} x {args.runs} runs, failed share "
              f"{sorted(shares)}, run wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        if len(shares) > 1:
            ok = False
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            cells, medians = [], []
            for runs in sets:
                med, q1, q3, spread = summary(
                    [run["metrics"][name]["value"] for run in runs])
                medians.append(med)
                verdict = ""
                if name != "setup_s":
                    verdict = " ok" if spread <= spec["bound"] else " WIDE"
                    ok &= spread <= spec["bound"]
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] "
                             f"spread {spread:.3f}{verdict}")
            line = f"  {name:28s} " + " | ".join(cells)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if spec["better"] == "lower" else -change
                agree = worse <= spec["bound"]
                ok &= agree
                line += (f" | second vs first {change:+.3f} "
                         f"(bound {spec['bound']}) "
                         f"{'agree' if agree else 'DISAGREE'}")
            print(line, flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steady-{'-'.join(workloads)}.json").write_text(
        json.dumps(raw, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
