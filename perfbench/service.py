"""The ``service`` workload: a closed loop against ``repro-serve``.

The server is booted as its own process with its default flags (at most
``nproc`` shards).  Two client threads, each with its own
``ServiceClient`` (one keep-alive connection, retries off), run rounds
in step; a round is ten jobs, all on the sync
path (``"sync": true``):

* the runner client sends six seeded ``run`` jobs on one hot digest,
  BWT n=3: two with seeds drawn from a small repeated pool, four with
  fresh seeds;
* the analyst client sends two cold analysis jobs on specs no earlier
  job used (BWT with ``optimize``, TF pow17/mul to Toffoli, or a raw
  Quipper-ASCII circuit) and two cache-hit queries on specs warmed
  during set-up.

Runs are six of every ten jobs and the slowest class, so both the
median and the tail fall inside the run class.  Only the runner sends
runs, so run jobs never queue behind each other on the hot shard.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (
    OUT_DIR, BenchError, Tracer, metric, program_env, tail_percentile,
)

#: Server boots per run; setup_s is the median, the last boot is measured.
BOOTS = 3
TAIL_PCT = 80
MIN_JOBS = 50
SHOTS = 128
HOT = {"program": "bwt", "params": {"n": 3}}
#: Specs the cache-hit queries ask about (compiled during set-up).
HIT_SPECS = (
    dict(HOT, action="count"),
    dict(HOT, action="depth"),
    {"program": "tf", "params": {"part": "oracle", "l": 4, "n": 3, "r": 2},
     "action": "count"},
    {"program": "tf", "params": {"part": "oracle", "l": 4, "n": 3, "r": 2},
     "action": "width"},
)
#: Small run specs tried during set-up until every shard has answered.
SHARD_PROBES = (
    {"program": "bwt", "params": {"n": 2}},
    {"program": "bwt", "params": {"n": 1}},
    {"program": "bell"},
    {"program": "bwt", "params": {"n": 2, "s": 2}},
    {"program": "bwt", "params": {"n": 1, "s": 2}},
    {"program": "bwt", "params": {"n": 2, "s": 3}},
)
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


def connect(port: int):
    """The program's own client, failing on the first error: no retries.

    Each thread gets its own (``ServiceClient`` is not thread-safe); it
    keeps one keep-alive connection and reconnects after a failure.
    """
    from repro.service.client import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout=120, retries=0,
                         max_wait=0)


def sync(client, spec: dict) -> dict:
    """One job on the sync path; returns ``{"job": ..., "result": ...}``."""
    return client.request("POST", "/v1/jobs", dict(spec, sync=True))


# -- the server process -------------------------------------------------------


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _descendants(pid: int) -> list[int]:
    tree, found, todo = _children(), [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(tree.get(current, ()))
    return found


def _hwm_mib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """A ``repro-serve`` process in its own session, with its workers."""

    def __init__(self, boot: int):
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"service-boot{boot}.log"
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server", "--port", "0",
             *self._flags()],
            stdout=self.log, stderr=self.log, env=program_env(),
            start_new_session=True,
        )
        self.port: int | None = None

    @staticmethod
    def _flags() -> list[str]:
        # The default is two shards; never more than this machine's cores.
        cores = os.cpu_count() or 1
        return ["--shards", str(cores)] if cores < 2 else []

    def wait_listening(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://[\d.]+:(\d+)",
                              self.log_path.read_text())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"server did not start: "
                         f"{self.log_path.read_text()[-600:]}")

    def peak_rss_mib(self) -> float:
        """Summed peak resident memory of the server and its workers."""
        return sum(_hwm_mib(pid) for pid in _descendants(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM, then SIGKILL what is left; wait until all are gone."""
        family = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + STOP_TIMEOUT
        while any(_alive(p) for p in family) and time.monotonic() < deadline:
            time.sleep(0.02)
        self.log.close()


def boot(index: int) -> tuple[Server, float]:
    """Start a server and warm it; returns it and the set-up seconds.

    Ready means: listening, every shard has answered a run job, and the
    specs the hit queries use are compiled.
    """
    start = time.perf_counter()
    server = Server(index)
    try:
        port = server.wait_listening()
        client = connect(port)
        shards = len(client.stats()["pool"]["busy"])
        probes = [HOT, *SHARD_PROBES]
        while True:
            batch, probes = probes[:shards], probes[shards:]
            if not batch:
                raise BenchError("no probe spec reached every shard")
            threads = [
                threading.Thread(target=_probe_run, args=(port, spec))
                for spec in batch
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            pool = client.stats()["pool"]
            if all(pool["jobs_run"]):
                break
        for spec in HIT_SPECS:
            sync(client, spec)
        client.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _probe_run(port: int, spec: dict) -> None:
    with connect(port) as client:
        sync(client, dict(spec, action="run", run={"shots": 8, "seed": 0}))


# -- the job mix ----------------------------------------------------------------


class Runner:
    """The runner client's rounds: seeded runs on the hot digest."""

    def __init__(self, seed: int):
        # One stream per client, so thread timing cannot reorder draws.
        self.rnd = random.Random(f"service:{seed}:runner")
        self.repeat_pool = [self.rnd.randrange(1, 10**6) for _ in range(3)]
        self.fresh = 10**6 + self.rnd.randrange(10**6)

    def round(self) -> list[dict]:
        seeds = [self.rnd.choice(self.repeat_pool) for _ in range(2)]
        for _ in range(4):
            self.fresh += 1
            seeds.append(self.fresh)
        self.rnd.shuffle(seeds)
        return [{"class": "run", "spec": dict(
            HOT, action="run", run={"shots": SHOTS, "seed": s})}
            for s in seeds]


#: The TF parts the cold jobs take to Toffoli.  Every (part, l) is its own
#: circuit: l is the only parameter pow17 and mul read.  A run of 35 s uses
#: about nine of them.
TF_COLD = (*(("pow17", l) for l in (3, 4, 5)),
           *(("mul", l) for l in range(4, 17)))


class Analyst:
    """The analyst client's rounds: cold analyses and cache hits."""

    def __init__(self, seed: int):
        self.rnd = random.Random(f"service:{seed}:analyst")
        self.cold_serial = 0
        self.tf_cold = list(TF_COLD)
        self.rnd.shuffle(self.tf_cold)

    def round(self) -> list[dict]:
        jobs = [self.cold() for _ in range(2)]
        jobs += [{"class": "hit", "spec": self.rnd.choice(HIT_SPECS)}
                 for _ in range(2)]
        self.rnd.shuffle(jobs)
        return jobs

    def cold(self) -> dict:
        self.cold_serial += 1
        kind = ("bwt-optimize", "tf-toffoli", "circuit")[self.cold_serial % 3]
        if kind == "tf-toffoli" and not self.tf_cold:
            # Every TF part is used up: BWT and raw circuits take over.
            kind = ("bwt-optimize", "circuit")[self.cold_serial % 2]
        if kind == "bwt-optimize":
            spec = {"program": "bwt", "optimize": True, "action": "count",
                    "params": {"n": 3, "t": round(self.rnd.uniform(0.01, 1),
                                                  9)}}
        elif kind == "tf-toffoli":
            part, l = self.tf_cold.pop()
            spec = {"program": "tf", "transform": "toffoli",
                    "action": "count", "params": {"part": part, "l": l}}
        else:
            from circuits import ops_program, random_ops

            ops = random_ops(self.rnd, 8, 150)
            spec = {"circuit": ops_program(8, ops).dumps(),
                    "action": "count"}
            return {"class": "cold", "kind": kind, "spec": spec,
                    "expect_total": len(ops)}
        return {"class": "cold", "kind": kind, "spec": spec}


# -- the closed loop --------------------------------------------------------------


def _client_loop(port: int, make_round, barrier: threading.Barrier,
                 state: dict, tracer: Tracer, records: list) -> None:
    from http.client import HTTPException
    from repro.service.client import ServiceClientError

    client = connect(port)
    try:
        while not state["stop"]:
            for job in make_round():
                start = time.perf_counter()
                try:
                    reply = sync(client, job["spec"])
                except (ServiceClientError, OSError, HTTPException) as exc:
                    job["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    job["result"] = reply["result"]
                    job["status"] = reply["job"]
                end = time.perf_counter()
                job["latency"] = end - start
                if tracer.enabled and "status" in job:
                    job_id = job["status"]["id"]
                    tracer.record(f"service.{job['class']}", start, end,
                                  job_id)
                    job["status"] = client.status(job_id)
                records.append(job)
            barrier.wait()
    except threading.BrokenBarrierError:
        pass  # the other client failed; closed_loop reports it
    except BaseException as exc:
        state["crash"] = exc
        barrier.abort()
        raise
    finally:
        client.close()


def closed_loop(port: int, seed: int, seconds: float,
                tracer: Tracer) -> tuple[list[dict], float]:
    """Run whole rounds on both clients until time and job count allow."""
    records: list[dict] = []
    state = {"stop": False}
    start = time.perf_counter()

    def decide() -> None:
        state["stop"] = (time.perf_counter() - start >= seconds
                         and len(records) >= MIN_JOBS)

    barrier = threading.Barrier(2, action=decide)
    threads = [
        threading.Thread(target=_client_loop, args=(
            port, client.round, barrier, state, tracer, records))
        for client in (Runner(seed), Analyst(seed))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if "crash" in state:
        raise BenchError(f"a client thread failed: {state['crash']!r}")
    return records, time.perf_counter() - start


# -- checks ------------------------------------------------------------------------


def _own_total(spec: dict) -> int:
    """The benchmark's recount of a program spec, built in this process."""
    from circuits import recount
    from repro.algorithms.bwt.main import bwt_program
    from repro.algorithms.tf.main import part_program

    params = spec["params"]
    if spec["program"] == "bwt":
        program = bwt_program(params.get("n", 4), params.get("s", 1),
                              params.get("t", 0.1))
    else:
        program = part_program(params["part"], params["l"],
                               params.get("n", 3), params.get("r", 2),
                               "orthodox")
    if spec.get("transform"):
        program = program.transform(spec["transform"])
    if spec.get("optimize"):
        program = program.optimize()
    return recount(program.bcircuit)[0]


def check(records: list[dict], stats: dict) -> list[str]:
    problems = []
    totals: dict[str, int] = {}
    by_seed: dict[int, str] = {}
    for job in records:
        if "result" not in job:
            continue
        spec, result = job["spec"], job["result"]
        if job["class"] == "run":
            if sum(result["counts"].values()) != SHOTS:
                problems.append(f"run counts sum to "
                                f"{sum(result['counts'].values())}")
            blob = json.dumps(result, sort_keys=True)
            seed = spec["run"]["seed"]
            if by_seed.setdefault(seed, blob) != blob:
                problems.append(f"seed {seed} repeated with other bytes")
        elif spec["action"] == "count":
            if "expect_total" in job:
                want = job["expect_total"]
            else:
                key = json.dumps(spec, sort_keys=True)
                if key not in totals:
                    totals[key] = _own_total(spec)
                want = totals[key]
            if result["total"] != want:
                problems.append(f"count {result['total']} != recount {want} "
                                f"for {job.get('kind', 'hit')}")
    counters = stats["service"]["counters"]
    for name in ("jobs.failed", "jobs.timeouts", "worker.retries",
                 "worker.respawns"):
        if counters.get(name, 0):
            problems.append(f"/v1/stats {name} = {counters[name]}")
    return problems


# -- the workload ----------------------------------------------------------------


def _stats(port: int) -> dict:
    # A connection of its own, closed again: only the two clients stay
    # connected while jobs are timed.
    with connect(port) as client:
        return client.stats()


def _delta(after: dict, before: dict, name: str) -> int:
    return (after["service"]["counters"].get(name, 0)
            - before["service"]["counters"].get(name, 0))


def run(seed: int, seconds: float, tracer: Tracer) -> dict:
    setups = []
    for index in range(BOOTS - 1):
        server, setup = boot(index)
        setups.append(setup)
        server.stop()
    server, setup = boot(BOOTS - 1)
    setups.append(setup)
    try:
        before = _stats(server.port)
        records, wall = closed_loop(server.port, seed, seconds, tracer)
        after = _stats(server.port)
        peak = server.peak_rss_mib()
    finally:
        server.stop()
    done = [job for job in records if "result" in job]
    errors = [f"{job['class']}: {job['error']}" for job in records
              if "error" in job]
    latencies = [job["latency"] for job in done]
    result = {
        "attempted": len(records), "errors": errors,
        "problems": check(records, after),
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "jobs_per_s": metric(len(done) / wall, "1/s"),
            "job_p50_s": metric(statistics.median(latencies), "s"),
            "job_tail_s": metric(tail_percentile(latencies, TAIL_PCT), "s"),
            "peak_rss_mib": metric(peak, "MiB"),
        },
    }
    if tracer.enabled:
        result["layers"] = _layers(done, before, after, tracer)
    return result


def _layers(done: list[dict], before: dict, after: dict,
            tracer: Tracer) -> dict:
    runs = [job for job in done if job["class"] == "run"]
    queries = [job for job in done if job["class"] != "run"]

    def mean_s(jobs, field):
        return metric(statistics.fmean(
            job["status"][field] / 1e3 for job in jobs), "s")

    http_s = statistics.fmean(
        job["latency"] - (job["status"]["queue_wait_ms"]
                          + job["status"]["exec_ms"]) / 1e3
        for job in done)
    hits = _delta(after, before, "cache.hits")
    misses = _delta(after, before, "cache.misses")
    warm = sum(1 for job in runs if job["status"]["worker"]["stream_warm"])
    tracer.extra["jobs"] = [
        {key: job[key] for key in ("class", "latency", "status")}
        for job in done
    ]
    tracer.extra["stats"] = after
    seen_digests: set[str] = set()
    repeated_digests = 0
    for job in done:
        repeated_digests += job["status"]["digest"] in seen_digests
        seen_digests.add(job["status"]["digest"])
    seeds = [job["spec"]["run"]["seed"] for job in runs]
    tracer.extra["shares"] = {
        "repeated_digest": repeated_digests / len(done),
        "repeated_seed": 1 - len(set(seeds)) / len(seeds),
        "classes": {c: sum(job["class"] == c for job in done) / len(done)
                    for c in ("run", "cold", "hit")},
    }
    return {
        "service.http_s": metric(http_s, "s"),
        "service.queue_wait_s": mean_s(done, "queue_wait_ms"),
        "service.exec_query_s": mean_s(queries, "exec_ms"),
        "service.exec_run_s": mean_s(runs, "exec_ms"),
        "service.cache_misses": metric(misses, "count"),
        "service.cache_hit_ratio": metric(hits / (hits + misses), "ratio"),
        "service.stream_warm_ratio": metric(warm / len(runs), "ratio"),
        "service.worker_retries": metric(
            _delta(after, before, "worker.retries")
            + _delta(after, before, "worker.respawns"), "count"),
    }
