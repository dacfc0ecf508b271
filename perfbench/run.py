"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every layer call and prints the per-layer
metrics, writing the spans to ``.perfbench/trace-<workload>-seed<n>.json``.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Progress and check failures go to standard error.  Exits 2, printing
no result, when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    ROOT, BenchError, Tracer, emit_result, log, median_setup, metric,
    require_source,
)

WORKLOADS = ("estimate", "verify", "service")
#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_PROBES = 3


def _module(name: str):
    if name == "estimate":
        import estimate as module
    elif name == "verify":
        import verify as module
    else:
        import service as module
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", choices=("estimate", "verify"),
                        help="import the program, run the warm-up job, "
                             "print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    try:
        require_source()
        if args.setup_only:
            _module(args.setup_only).warm_up()
            print("ready", flush=True)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        module = _module(args.workload)
        tracer = Tracer(bool(args.trace))
        # The service times its own set-up (server boots); traced runs
        # report no end-to-end metric, so they skip the probes.
        probe = args.workload != "service" and not tracer.enabled
        setup_s = median_setup(args.workload, SETUP_PROBES) if probe else None
        with tracer:
            result = module.run(args.seed, args.seconds, tracer)
        if setup_s is not None:
            result["metrics"]["setup_s"] = metric(setup_s, "s")
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2
    for error in result["errors"]:
        log(f"perfbench: operation failed: {error}")
    for problem in result["problems"]:
        log(f"perfbench: check failed: {problem}")
    if tracer.enabled:
        # The traced run's own end-to-end figures give the tracing overhead.
        tracer.extra["end_to_end"] = result["metrics"]
        log(f"perfbench: trace written to "
            f"{tracer.write(args.workload, args.seed)}")
    emit_result(not result["problems"], result["attempted"],
                len(result["errors"]), declared_metrics(result, tracer.enabled))
    return 0


def declared_metrics(result: dict, traced: bool) -> dict:
    """Every metric BENCHMARK.json declares for this mode, in its order.

    A workload measures every end-to-end metric.  A per-layer metric of
    a layer the workload never calls reads 0, which is what was measured.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not traced:
        return {m["name"]: result["metrics"][m["name"]]
                for m in spec["end_to_end"]}
    return {m["name"]: result["layers"].get(m["name"], metric(0, m["unit"]))
            for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
