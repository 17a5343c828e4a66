"""Exact combinatorial capacity metrics for a repertoire of K modes.

All integer quantities are computed with exact integer arithmetic — no
floating intermediates — so the values stay bit-exact across the supported
range.  ``MAX_WIDTH`` caps K at 120, which keeps every quantity well inside
exact big-integer territory while covering all widths of practical
interest; wider repertoires are only meaningful for entropy, which has its
own log-space path (see :mod:`rhetor.entropy`).

Metrics:

* ``k_m = ⌊K/2⌋`` and ``K_max = C(K, k_m)`` — the largest single
  subset-size choice count.
* ``K_NRC = 2^K − 1`` — number of non-empty mode subsets.
* ``K_RC = log2(K_NRC)`` — the same capacity in bits.
* ``MRB`` — marginal capacity per added mode; constant 1 bit.
* ``growth`` — introduction rate L_n turned into bits/stage and a
  normalized load class against a learner capacity C_0.
* ``coverage`` — fraction of available modes actually used, with a
  three-band reading (limited / moderate / high).
"""
from __future__ import annotations

import math

from .errors import BadCapacity, BadCount, OutOfRange, _beyond_float, shown
from .records import record

#: Largest supported rhetorical width for exact capacity metrics.
MAX_WIDTH = 120

#: Marginal capacity of one added mode, in bits.
MRB = 1.0

#: Load classification tolerance around the critical point 1.0.
CRITICAL_TOLERANCE = 1e-9

LIMITED = "limited"
MODERATE = "moderate"
HIGH = "high"

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


def _check_width(k: int, top: int = MAX_WIDTH) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise OutOfRange(f"width must be an integer, got {shown(k)}")
    if k < 1 or k > top:
        raise OutOfRange(f"width {shown(k)} outside supported range 1..{top}")


@record
class CapacityReport:
    """Exact capacity metrics for one rhetorical width K."""

    K: int
    k_m: int
    K_max: int
    K_NRC: int
    K_RC: float
    MRB: float = MRB


@record
class GrowthParams:
    """Introduction rate expressed as bits/stage and normalized load."""

    L_n: float
    C_0: float
    R_scale: float
    R_scale_norm: float
    load_class: str


@record
class CoverageReport:
    """Share of an available repertoire actually used."""

    K_u: int
    K: int
    C_m: float
    band: str


def capacity(k: int) -> CapacityReport:
    """Exact capacity metrics for width ``k`` (1 ≤ k ≤ 120)."""
    _check_width(k)
    k_m = k // 2
    nrc = 2**k - 1
    return CapacityReport(
        K=k,
        k_m=k_m,
        K_max=math.comb(k, k_m),
        K_NRC=nrc,
        K_RC=math.log2(nrc),
    )


def capacity_table(max_k: int) -> list[CapacityReport]:
    """Capacity reports for every width 1..``max_k``, in order."""
    _check_width(max_k)
    return [capacity(k) for k in range(1, max_k + 1)]


def capacity_ratio(k1: int, k2: int) -> float:
    """Ratio of non-empty subset counts, K_NRC(k1) / K_NRC(k2)."""
    _check_width(k1)
    _check_width(k2)
    return (2**k1 - 1) / (2**k2 - 1)


def growth(l_n: float, c_0: float = 1.0) -> GrowthParams:
    """Bits/stage and load class for introduction rate ``l_n`` against capacity ``c_0``."""
    for name, value in (("learner capacity C_0", c_0), ("introduction rate L_n", l_n)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BadCapacity(f"{name} must be an int or float, got {shown(value)}")
        if _beyond_float(value):
            raise BadCapacity(f"{name} is out of floating-point range")
    if not math.isfinite(c_0) or c_0 <= 0:
        raise BadCapacity(f"learner capacity C_0 must be positive, got {shown(c_0)}")
    if not math.isfinite(l_n) or l_n < 0:
        raise BadCapacity(f"introduction rate L_n must be non-negative, got {shown(l_n)}")
    r_scale = l_n * MRB
    norm = r_scale / c_0
    if not math.isfinite(norm):
        raise BadCapacity(f"load L_n/C_0 = {shown(l_n)}/{shown(c_0)} is out of "
                          "floating-point range")
    if abs(norm - 1.0) <= CRITICAL_TOLERANCE:
        load_class = CRITICAL
    elif norm < 1.0:
        load_class = SUBCRITICAL
    else:
        load_class = SUPERCRITICAL
    return GrowthParams(L_n=l_n, C_0=c_0, R_scale=r_scale,
                        R_scale_norm=norm, load_class=load_class)


def coverage_band(c_m: float) -> str:
    """Band for a usage share: limited < 0.3 ≤ moderate < 0.7 ≤ high."""
    if not isinstance(c_m, (int, float)) or isinstance(c_m, bool) or not 0 <= c_m <= 1:
        raise BadCount(f"usage share must be an int or float from 0 to 1, got {shown(c_m)}")
    if c_m < 0.3:
        return LIMITED
    if c_m < 0.7:
        return MODERATE
    return HIGH


def coverage(k_u: int, k: int) -> CoverageReport:
    """Usage share K_u/K of an available repertoire of ``k`` modes."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise OutOfRange(f"width must be a positive integer, got {shown(k)}")
    if not isinstance(k_u, int) or isinstance(k_u, bool) or k_u < 0:
        raise BadCount(f"used-mode count must be a non-negative integer, got {shown(k_u)}")
    if k_u > k:
        raise BadCount(f"{shown(k_u)} modes used exceeds the {shown(k)} available")
    c_m = k_u / k
    return CoverageReport(K_u=k_u, K=k, C_m=c_m, band=coverage_band(c_m))
