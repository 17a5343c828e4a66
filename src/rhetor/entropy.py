"""Shannon-entropy measures of rhetorical choice.

Three measures, all in bits:

* flat entropy of an explicit mode-choice distribution (uniform over K
  modes gives log2 K);
* subset-size entropy: the entropy of the size of a uniformly drawn
  non-empty subset of K modes, ``H = −Σ_{k=1..K} q_k log2 q_k`` with
  ``q_k = C(K,k)/(2^K−1)``, together with its closed-form large-K
  approximation ``½·log2(πeK/2)``;
* layered entropy: per-stage subset-size entropies for a hierarchy of
  branching factors, set against the flat single-choice alternative.

The subset-size sum has two computation paths: exact big-integer binomials
up to width 120, and log-gamma arithmetic beyond (supported to 1000).
Both paths exist publicly so they can be cross-checked on the overlap.
Each total is a ``math.fsum``: correctly rounded, so results depend neither
on the order of the terms nor on the Python version.
"""
from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

from .capacity import MAX_WIDTH, _check_width
from .errors import BadCount, BadDistribution, OutOfRange, _beyond_float, shown
from .records import record

#: Largest width supported by the log-space path.
MAX_ENTROPY_WIDTH = 1000

#: Allowed deviation of an explicit distribution's total from 1.
DISTRIBUTION_TOLERANCE = 1e-9

_LN2 = math.log(2.0)


@record
class EntropyReport:
    """Entropy measures for one rhetorical width K."""

    K: int
    H_flat: float
    H_subset: float
    H_asymptotic: float
    gap: float


@record
class LayeredEntropyReport:
    """Per-stage subset-size entropies against a flat alternative."""

    stage_entropies: tuple[tuple[str, int, float], ...]
    flat_K: int
    flat_H: float
    max_stage_H: float
    sum_stage_H: float


def uniform(k: int) -> list[float]:
    """The uniform distribution over ``k`` outcomes."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise OutOfRange(f"outcome count must be an integer, got {shown(k)}")
    if _beyond_float(k):
        raise OutOfRange("outcome count is out of floating-point range")
    if k < 1:
        raise OutOfRange(f"need at least one outcome, got {k}")
    if k > sys.maxsize:
        raise OutOfRange(f"outcome count must be at most {sys.maxsize}, got {k}")
    return [1.0 / k] * k


def entropy_flat(probabilities: Iterable[float]) -> float:
    """Shannon entropy in bits of an explicit choice distribution."""
    from numbers import Real  # here, so that importing rhetor does not load it
    probabilities = tuple(probabilities)
    total = 0.0
    for p in probabilities:
        real = isinstance(p, Real) and not isinstance(p, bool)
        if real and _beyond_float(p):
            raise BadDistribution("a probability is out of floating-point range")
        if not real or not math.isfinite(p) or p < 0:
            raise BadDistribution(f"probability {shown(p)} is not a real number in [0, 1]")
        total += p
    if abs(total - 1.0) > DISTRIBUTION_TOLERANCE:
        raise BadDistribution(f"probabilities sum to {shown(total)}, not 1")
    return 0.0 - math.fsum(p * math.log2(p) for p in probabilities if p > 0)


def subset_entropy_exact(k: int) -> float:
    """Subset-size entropy via exact big-integer binomials (width ≤ 120)."""
    _check_width(k, MAX_ENTROPY_WIDTH)
    if k > MAX_WIDTH:
        raise OutOfRange(f"exact path supports width 1..{MAX_WIDTH}, got {k}")
    nrc = 2**k - 1
    probs = (math.comb(k, i) / nrc for i in range(1, k + 1))
    return 0.0 - math.fsum(q * math.log2(q) for q in probs)


def subset_entropy_logspace(k: int) -> float:
    """Subset-size entropy via log-gamma binomials (any supported width)."""
    _check_width(k, MAX_ENTROPY_WIDTH)
    ln_nrc = k * _LN2 + math.log1p(-(2.0**-k))
    ln_probs = (math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1) - ln_nrc
                for i in range(1, k + 1))
    # term −q·log2 q computed from ln q; exp underflows harmlessly to 0.
    return 0.0 - math.fsum(math.exp(lq) * (lq / _LN2) for lq in ln_probs)


def asymptotic_subset_entropy(k: int) -> float:
    """Closed-form large-width approximation ½·log2(πeK/2)."""
    _check_width(k, MAX_ENTROPY_WIDTH)
    return 0.5 * math.log2(math.pi * math.e * k / 2.0)


def entropy_subset_sizes(k: int) -> EntropyReport:
    """Full entropy report for width ``k`` (1 ≤ k ≤ 1000).

    The subset-size term uses the exact path up to width 120 and the
    log-space path beyond.
    """
    _check_width(k, MAX_ENTROPY_WIDTH)
    h_subset = subset_entropy_exact(k) if k <= MAX_WIDTH else subset_entropy_logspace(k)
    h_asym = asymptotic_subset_entropy(k)
    return EntropyReport(
        K=k,
        H_flat=math.log2(k),
        H_subset=h_subset,
        H_asymptotic=h_asym,
        gap=h_subset - h_asym,
    )


def entropy_layered(
    branchings: Sequence[tuple[str, int]],
    flat_k: int,
) -> LayeredEntropyReport:
    """Per-stage subset-size entropies for a branching hierarchy.

    Each stage contributes the subset-size entropy of its own branching
    factor; the report sets the largest and the summed per-stage entropy
    against the flat single-selection entropy over ``flat_k``.
    """
    if not branchings:
        raise BadCount("need at least one stage branching")
    stages = tuple(
        (name, b, entropy_subset_sizes(b).H_subset) for name, b in branchings)
    flat_h = entropy_subset_sizes(flat_k).H_subset
    per_stage = [h for _, _, h in stages]
    return LayeredEntropyReport(
        stage_entropies=stages,
        flat_K=flat_k,
        flat_H=flat_h,
        max_stage_H=max(per_stage),
        sum_stage_H=math.fsum(per_stage),
    )
