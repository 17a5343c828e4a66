"""Times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a third within seconds (other tenants share the caches and the
cores), while the process keeps its full CPU share.  Wall times alone then
measure the neighbours as much as the program.  A short pure-Python
reference loop, timed right before and right after each timed region, slows
down with the host in step (over 1.5-s windows on a 2-core shared cloud
VM, its times correlate with the jobs' at 0.85-0.96), so every time the
benchmark reports is

    wall seconds * REF_NOMINAL_S / (mean of the reference loop's time around it)

that is, the time the region would take on a host where the reference loop
takes ``REF_NOMINAL_S``.  The loop depends on nothing in the repository, so
a change to rhetor cannot move it; the raw wall figures are kept beside the
scaled ones in each run's ``DETAIL`` line.
"""
from __future__ import annotations

from time import perf_counter

REF_NOMINAL_S = 0.0005   # about the loop's median time on a 2-core cloud VM
REF_REPEATS = 2          # back-to-back loops per reading; the fastest counts


def ref_loop() -> int:
    """Dict and string work, the kind rhetor's hot paths do.

    It allocates no container but the one dict, so it does not move the
    garbage collector's counters and cannot bring a collection forward into
    the job it brackets.
    """
    table = {}
    for i in range(2500):
        table[str(i)] = i
    return len(table)


def ref_reading(repeats: int = REF_REPEATS) -> float:
    """Seconds the reference loop takes now: the fastest of ``repeats``."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        ref_loop()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the reference speed, from readings around it."""
    return seconds * REF_NOMINAL_S * 2 / (before + after)
