"""How ``closure``'s cost per derivation grows with the number of atoms.

    python3 scripts/closure_scale.py

For each size n it builds a registry of n atoms and nothing else and times
``closure(registry, DualityRuleSet(), ["unite"], 1)``, which makes
C(n, 2) derivations, in this process.  After one untimed call, each size
is timed three times with the cyclic garbage collector on and as often
with it off, alternating; the median of each gives the microseconds per
derivation.  The collector is switched off only around the timed call, and
only in this script.

It prints one JSON line: the Python version, the sizes, the runs, the
microseconds per derivation for each size with the collector on
(``gc_on``) and off (``gc_off``), for each the ratio of every larger size
to the smallest (``"400/100"``), and the collector's share per size,
``gc_cost`` = ``gc_on`` - ``gc_off`` microseconds per derivation.  A flat
cost per derivation gives ratios near 1; when only the flat part of the
cost falls, the ratios rise, so read them with the times and ``gc_cost``.
The library is imported from this checkout's ``src``.
"""
from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 200, 400, 800)
RUNS = 3


def atom_ids(n: int) -> list[str]:
    """``n`` distinct one-word atom ids, all letters."""
    ids = []
    for i in range(n):
        word = ""
        while True:
            i, digit = divmod(i, 26)
            word += chr(ord("a") + digit)
            if not i:
                break
        ids.append("m" + word)
    return ids


def timed_closure(rhetor, registry, collect: bool) -> tuple[float, int]:
    """Seconds for one depth-1 ``unite`` closure, and the derivations it made."""
    gc.collect()
    if not collect:
        gc.disable()
    try:
        start = time.perf_counter()
        derivations = rhetor.closure(registry, rhetor.DualityRuleSet(), ["unite"], 1)
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    return seconds, len(derivations)


def probe(sizes=SIZES, runs: int = RUNS) -> dict:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import rhetor

    if not gc.isenabled():
        sys.exit("the garbage collector is off; the gc_on figures need it on")
    per_derivation: dict[str, dict[str, float]] = {"gc_on": {}, "gc_off": {}}
    for n in sizes:
        registry = rhetor.Registry([rhetor.Mode(i, i.title()) for i in atom_ids(n)])
        timed_closure(rhetor, registry, collect=True)  # fills the name caches
        times: dict[str, list[float]] = {"gc_on": [], "gc_off": []}
        for _ in range(runs):
            for key in times:
                seconds, made = timed_closure(rhetor, registry, collect=key == "gc_on")
                if made != n * (n - 1) // 2:
                    sys.exit(f"{n} atoms gave {made} derivations, not C({n}, 2)")
                times[key].append(seconds * 1e6 / made)
        for key, values in times.items():
            per_derivation[key][str(n)] = round(statistics.median(values), 3)
    smallest = str(min(sizes))
    ratios = {key: {f"{n}/{smallest}": round(us[str(n)] / us[smallest], 3)
                    for n in sorted(sizes) if str(n) != smallest}
              for key, us in per_derivation.items()}
    gc_cost = {n: round(us - per_derivation["gc_off"][n], 3)
               for n, us in per_derivation["gc_on"].items()}
    return {"python": platform.python_version(), "sizes": sorted(sizes), "runs": runs,
            "us_per_derivation": per_derivation, "ratio": ratios, "gc_cost": gc_cost}


def main() -> None:
    print(json.dumps(probe(), sort_keys=True))


if __name__ == "__main__":
    main()
