"""Shared plumbing of the benchmark: paths, tracing, statistics, set-up timing.

Nothing here imports ``repro``: the workload modules do that, after
:func:`require_source` has checked that the checkout holds the program.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (the directory that holds ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs and the service's logs go (ignored by git).
OUT_DIR = ROOT / ".perfbench"
RUN_PY = Path(__file__).resolve().parent / "run.py"


class BenchError(Exception):
    """The benchmark cannot run here (no program, a server that never boots)."""


def require_source() -> None:
    """Put the checkout's ``src/`` on the import path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """The environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- tracing ----------------------------------------------------------------


class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    Disabled, :meth:`span` hands back one shared null context, so the
    untraced run pays a method call per layer call and nothing else.
    Enabled, each span records name, start, end, parent span and job id,
    and a ``gc.callbacks`` hook sums the time CPython's cyclic collector
    runs.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.job: str | None = None
        self.gc_s = 0.0
        self.extra: dict = {}
        self._stack: list[int] = []
        self._gc_start: float | None = None
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        """A context manager timing one call into a layer."""
        if not self.enabled:
            return self._null
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        record = {
            "id": len(self.spans), "name": name, "job": self.job,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, job: str) -> None:
        """Add a finished top-level span (safe to call from any thread)."""
        self.spans.append({"id": len(self.spans), "name": name, "job": job,
                           "parent": None, "start": start, "end": end})

    def busy(self, name: str) -> float:
        """Seconds spent in spans called *name*."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def _on_gc(self, phase: str, info: dict) -> None:
        # Collections between jobs (the output checks) are not counted.
        if phase == "start" and self.job is not None:
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def __enter__(self) -> "Tracer":
        if self.enabled:
            gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled and self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def write(self, workload: str, seed: int) -> Path:
        """Write every span and counter out; returns the file's path."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": workload, "seed": seed, "gc_s": self.gc_s,
            "spans": self.spans, **self.extra,
        }))
        return path


# -- statistics ---------------------------------------------------------------


def tail_percentile(values: list[float], pct: int) -> float:
    """The nearest-rank *pct*-th percentile of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib_self() -> float:
    """Peak resident memory of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict) -> None:
    """Print the one-line JSON result the benchmark contract asks for."""
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed), "metrics": metrics,
    }), flush=True)


# -- set-up timing ------------------------------------------------------------


def time_setup_probe(workload: str) -> float:
    """Seconds from starting a fresh interpreter until it is ready to time.

    The child imports the program and runs the workload's warm-up job
    (``run.py --setup-only``), then prints ``ready``; the clock stops
    when that line arrives.
    """
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(RUN_PY), "--setup-only", workload],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        _, err = child.communicate(timeout=120)
    if line != "ready" or child.returncode != 0:
        raise BenchError(
            f"set-up probe for {workload} failed: {err.strip()[-400:]}"
        )
    return elapsed


def median_setup(workload: str, probes: int) -> float:
    """The median of *probes* fresh-process set-up times."""
    return statistics.median(time_setup_probe(workload)
                             for _ in range(probes))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
