"""Reference figures: the paper's T2, T3 and D2 counts beside this repo's.

Usage, from the root of a checkout (about two minutes, ~0.5 GiB)::

    python3 perfbench/reference.py            # T2, T3 and D2
    python3 perfbench/reference.py --only t3  # the T3 breakdown alone

Each instance goes through the same five public calls as an
``estimate`` job -- build, Toffoli decomposition, ``count()``,
``width()``, ``depth()`` -- timed one by one, so T3's line is a one-off
per-layer breakdown of the paper's trillion-gate count.  T3 is too long
to be one job of a repeated benchmark run, which is why it lives here.
"""

from __future__ import annotations

import argparse
import sys
import time

from common import log, peak_rss_mib_self, require_source

#: name -> (paper gates, paper qubits, instance, decompose to Toffoli)
PAPER = {
    "t2": (2_051_926, 1_462, ("tf", ("oracle", 31, 15, 9)), True),
    "t3": (30_189_977_982_990, 4_676, ("tf", ("full", 31, 15, 6)), True),
    "d2": (3_273_010, None, ("sin", (32, 32)), False),
}


def measure(kind: str, params: tuple, decompose: bool) -> dict:
    from estimate import make_program

    program = make_program(kind, params)
    times = {}
    start = time.perf_counter()
    program.bcircuit
    times["build"] = time.perf_counter() - start
    if decompose:
        program = program.transform("toffoli")
        start = time.perf_counter()
        program.bcircuit
        times["decompose"] = time.perf_counter() - start
    for name, call in (("count", program.count), ("width", program.width),
                       ("depth", program.depth)):
        start = time.perf_counter()
        value = call()
        times[name] = time.perf_counter() - start
        if name == "count":
            total = sum(value.values())
        elif name == "width":
            width = value
    return {"total": total, "width": width, "times": times,
            "stored": len(program.bcircuit)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", default="t2,t3,d2")
    args = parser.parse_args(argv)
    require_source()
    for name in args.only.split(","):
        gates, qubits, (kind, params), decompose = PAPER[name]
        log(f"measuring {name} ...")
        got = measure(kind, params, decompose)
        wall = sum(got["times"].values())
        layers = ", ".join(f"{k} {v:.2f} s" for k, v in got["times"].items())
        print(f"{name.upper()}: paper {gates:,} gates"
              + (f", {qubits:,} qubits" if qubits else "")
              + f"; here {got['total']:,} gates, width {got['width']:,}, "
              f"{got['stored']:,} gates stored; {wall:.1f} s ({layers}); "
              f"peak RSS so far {peak_rss_mib_self():.0f} MiB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
