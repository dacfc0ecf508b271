"""The ``verify`` workload: seeded equivalence proofs with known answers.

A round is ten proofs over fresh random circuits:

* two QASM round trips, ``P`` against ``Program.loads_qasm(P.qasm())``;
* two ``-O`` outputs, ``P`` against ``P.optimize()``;
* two ``P`` followed by ``P.inverse()``, against the identity;
* two one-gate mutants, ``P`` against ``P`` with one non-identity gate
  appended, which must come back ``distinct``;
* one wide Clifford circuit against its ``-O`` output (Clifford decider);
* one circuit too wide to simulate against its ``-O`` output (normal form).

The first eight sit at width 7, where the statevector decider sweeps
2^7 basis inputs for an equal pair and stops at the first witness for a
distinct one.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from common import Tracer, metric, peak_rss_mib_self, tail_percentile
from circuits import (
    follow_with_inverse, identity_program, ops_program, random_ops,
)

WIDTH = 7
GATES = 60
CLIFFORD_WIDTH, CLIFFORD_GATES = 20, 200
WIDE_WIDTH, WIDE_GATES = 16, 100
#: The statevector decider's width cap, fixed so the job mix cannot move.
MAX_WIDTH = 12
#: job_tail_s is this percentile; every run has at least MIN_JOBS jobs.
TAIL_PCT = 90
MIN_JOBS = 100

ROUND = ("qasm", "qasm", "optimize", "optimize", "inverse", "inverse",
         "mutant", "mutant", "clifford", "wide")
#: Gates appended to make a mutant: none is the identity up to phase.
MUTATIONS = (("H", None), ("X", None), ("Y", None), ("S", None),
             ("T", None), ("Ry", 1.234), ("Rx", -0.777))


def make_case(kind: str, rnd: random.Random) -> dict:
    """The generated inputs of one proof (op lists, not Programs)."""
    if kind == "clifford":
        return {"kind": kind, "width": CLIFFORD_WIDTH,
                "ops": random_ops(rnd, CLIFFORD_WIDTH, CLIFFORD_GATES,
                                  clifford=True)}
    if kind == "wide":
        return {"kind": kind, "width": WIDE_WIDTH,
                "ops": random_ops(rnd, WIDE_WIDTH, WIDE_GATES)}
    length = GATES // 2 if kind == "inverse" else GATES
    case = {"kind": kind, "width": WIDTH,
            "ops": random_ops(rnd, WIDTH, length)}
    if kind == "mutant":
        name, param = rnd.choice(MUTATIONS)
        case["extra"] = (name, rnd.randrange(WIDTH), (), False, param)
    return case


def expected(kind: str) -> str:
    return "distinct" if kind == "mutant" else "equivalent"


def run_job(case: dict, tracer: Tracer):
    """One proof through the public API; returns (P, other, verdict)."""
    kind, width, ops = case["kind"], case["width"], case["ops"]
    program = ops_program(width, ops)
    with tracer.span("core.build"):
        program.bcircuit
    if kind == "qasm":
        with tracer.span("io.qasm_export"):
            text = program.qasm()
        other = type(program).loads_qasm(text)
        with tracer.span("io.qasm_parse"):
            other.bcircuit
    elif kind in ("optimize", "clifford", "wide"):
        other = program.optimize()
        with tracer.span("optimize.peephole"):
            other.bcircuit
    elif kind == "inverse":
        program = follow_with_inverse(program, width)
        with tracer.span("core.build"):
            program.bcircuit
        other = identity_program(width)
    else:  # mutant
        other = ops_program(width, ops + [case["extra"]])
        with tracer.span("core.build"):
            other.bcircuit
    with tracer.span("equiv") as span:
        verdict = program.equivalent_to(other, max_width=MAX_WIDTH)
    if span is not None:
        span["name"] = f"equiv.{verdict.decider}"
        span["swept"] = swept(verdict)
    return program, other, verdict


def swept(verdict) -> bool:
    """Whether the statevector decider ran every basis input."""
    return (verdict.decider, verdict.verdict) == ("statevector",
                                                  "equivalent")


def _final_state(program, in_values: dict) -> np.ndarray:
    result = program.run("statevector", in_values=in_values)
    return np.asarray(result.statevector).ravel()


def confirm_witness(program, other, verdict) -> bool:
    """Run both circuits on the witness; True if they really differ.

    A witness for a relative phase only shows against the all-zero
    input, the decider's phase reference, so that input is run too.
    """
    wires = [w for w, _ in program.bcircuit.circuit.inputs]
    witness = verdict.witness["in_values"]
    values = {wires[int(k)]: bool(v) for k, v in witness.items()}
    a, b = _final_state(program, values), _final_state(other, values)
    overlap = np.vdot(a, b)
    if abs(abs(overlap) - 1.0) > 1e-9:
        return True  # not equal up to any phase on the witness
    zeros = {w: False for w in wires}
    a0, b0 = _final_state(program, zeros), _final_state(other, zeros)
    return abs(np.vdot(a0, b0) - overlap) > 1e-9


def check_job(case: dict, program, other, verdict) -> list[str]:
    want = expected(case["kind"])
    if verdict.verdict != want:
        return [f"{case['kind']}: verdict {verdict.verdict} "
                f"({verdict.reason}), expected {want}"]
    if want == "distinct" and (
        verdict.witness is None
        or not confirm_witness(program, other, verdict)
    ):
        return [f"{case['kind']}: witness {verdict.witness} not confirmed"]
    return []


def warm_up() -> None:
    """Import every layer and settle one small proof of each kind."""
    rnd = random.Random("verify:warm-up")
    tracer = Tracer(False)
    for kind in dict.fromkeys(ROUND):
        case = make_case(kind, rnd)
        if case["width"] == WIDTH:
            case["width"] = 3
            case["ops"] = random_ops(rnd, 3, 12)
            if kind == "mutant":
                case["extra"] = ("H", 0, (), False, None)
        problems = check_job(case, *run_job(case, tracer))
        if problems:
            raise RuntimeError(f"warm-up: {problems}")


def run(seed: int, seconds: float, tracer: Tracer) -> dict:
    rnd = random.Random(f"verify:{seed}")
    warm_up()
    latencies: list[float] = []
    attempted = 0
    errors: list[str] = []
    problems: list[str] = []
    rounds = 0
    basis_states = 0
    deciders: dict[str, int] = {}
    checks_s = 0.0  # the output checks are left out of the timed phase
    phase_start = time.perf_counter()

    def timed() -> float:
        return time.perf_counter() - phase_start - checks_s

    while timed() < seconds or attempted < MIN_JOBS:
        cases = [make_case(kind, rnd) for kind in ROUND]
        rnd.shuffle(cases)
        for case in cases:
            attempted += 1
            tracer.job = f"r{rounds}:{case['kind']}"
            start = time.perf_counter()
            try:
                program, other, verdict = run_job(case, tracer)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                errors.append(f"{case['kind']}: {type(exc).__name__}: "
                              f"{exc}")
                continue
            finally:
                tracer.job = None
            latencies.append(time.perf_counter() - start)
            check_start = time.perf_counter()
            problems += check_job(case, program, other, verdict)
            checks_s += time.perf_counter() - check_start
            if swept(verdict):
                basis_states += verdict.cost["basis_states"]
            deciders[verdict.decider] = deciders.get(verdict.decider, 0) + 1
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
        tracer.extra["deciders"] = deciders

        def per_round(name: str) -> dict:
            return metric(tracer.busy(name) / rounds, "s")

        # The rate counts complete sweeps only: a distinct pair stops at
        # its witness, but its cost still reads 2^n basis states.
        swept_s = sum(span["end"] - span["start"] for span in tracer.spans
                      if span.get("swept"))
        result["layers"] = {
            "core.build_s": per_round("core.build"),
            "io.qasm_export_s": per_round("io.qasm_export"),
            "io.qasm_parse_s": per_round("io.qasm_parse"),
            "optimize.peephole_s": per_round("optimize.peephole"),
            "equiv.clifford_s": per_round("equiv.clifford"),
            "equiv.statevector_s": per_round("equiv.statevector"),
            "equiv.normal_form_s": per_round("equiv.normal-form"),
            "equiv.basis_states": metric(basis_states / rounds, "count"),
            "equiv.basis_states_per_s":
                metric(basis_states / swept_s, "1/s"),
            "python.gc_s": metric(tracer.gc_s / rounds, "s"),
        }
    return result
