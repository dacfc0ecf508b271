"""Reproduce the known service fault that keeps TF ``count`` out of the mix.

Usage, from the root of a checkout (about 40 seconds)::

    python3 perfbench/service_fault.py

The request ``{"program": "tf", "action": "count"}`` names the default
TF spec, 34,726,938 gates, which ``Program.count()`` counts in about a
millisecond in process.  On the service the compile cache inlines every
spec whatever the action, so the job runs into its timeout.  This
script boots ``repro-serve --job-timeout 5`` and reports:

1. the HTTP status of the sync request (a 504);
2. the server's CPU seconds in the five seconds after that answer,
   spent by the cancelled compile that keeps running;
3. whether SIGTERM stops the server within ten seconds;
4. on a second boot, the status ``ServiceClient.execute`` reports for
   the same job (a 500, not the 504).

A watchdog kills the server if its resident memory passes 1.5 GiB, so
the runaway compile cannot take the machine's memory.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from common import require_source
from service import Server, _descendants, connect, sync

SPEC = {"program": "tf", "action": "count"}
RSS_CAP_MIB = 1536
TIMEOUT_FLAGS = ["--job-timeout", "5"]


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _rss_mib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class FaultServer(Server):
    """A server booted with a short job timeout and a memory watchdog."""

    def __init__(self, boot: int):
        super().__init__(boot)
        self.killed_for_memory = False
        self.peak_mib = 0.0
        self._watch = threading.Thread(target=self._watchdog, daemon=True)
        self._watch.start()

    @staticmethod
    def _flags() -> list[str]:
        return TIMEOUT_FLAGS

    def _watchdog(self) -> None:
        while self.proc.poll() is None:
            rss = sum(_rss_mib(p) for p in _descendants(self.proc.pid))
            self.peak_mib = max(self.peak_mib, rss)
            if rss > RSS_CAP_MIB:
                self.killed_for_memory = True
                os.killpg(self.proc.pid, signal.SIGKILL)
                return
            time.sleep(0.05)


def main() -> int:
    require_source()
    from repro.service.client import ServiceClient, ServiceClientError

    server = FaultServer(90)
    try:
        with connect(server.wait_listening()) as client:
            start = time.perf_counter()
            try:
                sync(client, SPEC)
                print("1. the sync request completed (fault not reproduced)")
            except ServiceClientError as exc:
                print(f"1. sync request answered {exc} after "
                      f"{time.perf_counter() - start:.1f} s")
        if server.proc.poll() is None:
            before = _cpu_s(server.proc.pid)
            time.sleep(5)
            if server.proc.poll() is None:
                print(f"2. server CPU in the 5 s after the answer: "
                      f"{_cpu_s(server.proc.pid) - before:.1f} s")
        if server.proc.poll() is None:
            server.proc.send_signal(signal.SIGTERM)
            start = time.perf_counter()
            try:
                server.proc.wait(10)
                print(f"3. SIGTERM stopped the server in "
                      f"{time.perf_counter() - start:.1f} s")
            except subprocess.TimeoutExpired:
                print("3. SIGTERM did not stop the server within 10 s")
        if server.killed_for_memory:
            print(f"   the watchdog killed the server at "
                  f"{server.peak_mib:.0f} MiB resident")
    finally:
        server.stop()
    print(f"   peak resident memory of that server: {server.peak_mib:.0f} MiB")

    server = FaultServer(91)
    try:
        port = server.wait_listening()
        with ServiceClient("127.0.0.1", port, max_wait=0) as svc:
            try:
                svc.execute(timeout=30, **SPEC)
                print("4. ServiceClient.execute completed")
            except ServiceClientError as exc:
                print(f"4. ServiceClient.execute reported {exc}")
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
