"""The ``estimate`` workload: paper-scale resource estimation in one process.

Each job builds one paper instance, decomposes it to the Toffoli base,
then takes ``count()``, ``width()`` and ``depth()``.  A round is six
jobs: the T2 oracle, a large BWT, two TF ``full`` instances, the D1 Hex
oracle and the D2 sin oracle.  Runs repeat whole rounds until the run's
time is up.
"""

from __future__ import annotations

import random
import statistics
import time

from common import Tracer, metric, peak_rss_mib_self, tail_percentile
from circuits import arity_histogram, recount

#: The job classes of one round: (label, factory name, parameters).
ROUND = (
    ("tf-oracle-31/15/9", "tf", ("oracle", 31, 15, 9)),
    ("bwt-30", "bwt", (30, 1)),
    ("tf-full-31/15/4", "tf", ("full", 31, 15, 4)),
    ("tf-full-30/15/4", "tf", ("full", 30, 15, 4)),
    ("hex-9x7", "hex", (9, 7)),
    ("sin-16+16", "sin", (16, 16)),
)

#: job_tail_s: with six jobs a round this is a sin job in every run.
TAIL_PCT = 90

#: The warm-up job: one small instance of every generator.
WARMUP = (
    ("tf", ("full", 4, 3, 2)),
    ("bwt", (3, 1)),
    ("hex", (3, 3)),
    ("sin", (4, 4)),
)


def make_program(kind: str, params: tuple, rnd: random.Random | None = None):
    """A fresh Program for one job (nothing is shared between jobs)."""
    if kind == "tf":
        from repro.algorithms.tf.main import part_program

        return part_program(*params, "orthodox")
    if kind == "bwt":
        from repro.algorithms.bwt.main import bwt_program

        t = round(rnd.uniform(0.05, 1.0), 6) if rnd else 0.1
        return bwt_program(params[0], params[1], t)
    if kind == "hex":
        from repro.algorithms.bf.main import hex_oracle_program

        rows, cols = params
        if rnd is not None and rnd.random() < 0.5:
            rows, cols = cols, rows
        return hex_oracle_program(rows, cols)
    if kind == "sin":
        return sin_program(*params)
    raise ValueError(kind)


def sin_program(integer_bits: int, fraction_bits: int, terms: int = 7):
    """The D2 lifted sin(x) oracle as a Program (built from public parts)."""
    from repro import Program
    from repro.algorithms.qls.oracle import make_sin_template
    from repro.datatypes.fpreal import fpreal_shape
    from repro.lifting.template import unpack

    circuit_fn = unpack(make_sin_template(terms=terms, share=False))

    def circ(qc, x):
        return x, circuit_fn(qc, x)

    return Program.capture(
        circ, fpreal_shape(integer_bits, fraction_bits),
        name=f"sin({integer_bits}+{fraction_bits})", on_extra="ignore",
    )


def run_job(program, tracer: Tracer) -> dict:
    """The five public calls of one estimate job; returns the answers."""
    with tracer.span("core.build"):
        program.bcircuit
    decomposed = program.transform("toffoli")
    with tracer.span("transform.decompose"):
        decomposed.bcircuit
    with tracer.span("transform.count"):
        counts = decomposed.count()
    with tracer.span("core.check"):
        width = decomposed.width()
    with tracer.span("transform.depth"):
        depth = decomposed.depth()
    return {"program": decomposed, "counts": counts, "width": width,
            "depth": depth}


def check_job(answer: dict) -> list[str]:
    """The output checks of one job; returns the failures found."""
    bc = answer["program"].bcircuit
    counts = answer["counts"]
    total, arity, over = recount(bc)
    problems = []
    if total != sum(counts.values()):
        problems.append(f"recount {total} != count() {sum(counts.values())}")
    if arity != arity_histogram(counts):
        problems.append("gates by control count differ from count()")
    if over:
        problems.append(f"{over} counted gates outside the Toffoli base")
    interface = max(len(bc.circuit.inputs), len(bc.circuit.outputs))
    if answer["width"] < interface:
        problems.append(f"width {answer['width']} < {interface} wires")
    if not 0 < answer["depth"] <= total:
        problems.append(f"depth {answer['depth']} not in (0, {total}]")
    return problems


def warm_up() -> None:
    """Import every layer and run one small job of each generator."""
    tracer = Tracer(False)
    for kind, params in WARMUP:
        check = check_job(run_job(make_program(kind, params), tracer))
        if check:
            raise RuntimeError(f"warm-up {kind}{params}: {check}")


def run(seed: int, seconds: float, tracer: Tracer) -> dict:
    rnd = random.Random(f"estimate:{seed}")
    warm_up()
    latencies: list[float] = []
    attempted = 0
    errors: list[str] = []
    problems: list[str] = []
    rounds = 0
    stored_per_round = 0
    checks_s = 0.0  # the output checks are left out of the timed phase
    phase_start = time.perf_counter()

    def timed() -> float:
        return time.perf_counter() - phase_start - checks_s

    # Whole rounds; another one only if it ends nearer the run's length.
    while rounds == 0 or timed() * (1 + 1 / rounds / 2) < seconds:
        order = list(ROUND)
        rnd.shuffle(order)
        for label, kind, params in order:
            attempted += 1
            program = make_program(kind, params, rnd)
            tracer.job = f"r{rounds}:{label}"
            start = time.perf_counter()
            try:
                answer = run_job(program, tracer)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                tracer.job = None
            latencies.append(time.perf_counter() - start)
            check_start = time.perf_counter()
            problems += [f"{label}: {p}" for p in check_job(answer)]
            if rounds == 0:
                stored_per_round += len(answer["program"].bcircuit)
            checks_s += time.perf_counter() - check_start
            del answer, program
        rounds += 1
    wall = timed()
    result = {
        "attempted": attempted, "errors": errors, "problems": problems,
        "metrics": {
            "jobs_per_s": metric(len(latencies) / wall, "1/s"),
            "job_p50_s": metric(statistics.median(latencies), "s"),
            "job_tail_s": metric(tail_percentile(latencies, TAIL_PCT), "s"),
            "peak_rss_mib": metric(peak_rss_mib_self(), "MiB"),
        },
    }
    if tracer.enabled:
        per_round = {
            name: tracer.busy(name) / rounds
            for name in ("core.build", "transform.decompose",
                         "transform.count", "core.check", "transform.depth")
        }
        result["layers"] = {
            "core.build_s": metric(per_round["core.build"], "s"),
            "transform.decompose_s":
                metric(per_round["transform.decompose"], "s"),
            "transform.count_s": metric(per_round["transform.count"], "s"),
            "core.check_s": metric(per_round["core.check"], "s"),
            "transform.depth_s": metric(per_round["transform.depth"], "s"),
            "core.stored_gates": metric(stored_per_round, "count"),
            "python.gc_s": metric(tracer.gc_s / rounds, "s"),
        }
    return result
