"""Stage schedules and the growth cone: per-stage capacity metrics and the
rhetorical-scalable parameter along a schedule of cumulative widths.
"""
from __future__ import annotations

import math
from pathlib import Path

from .capacity import MAX_WIDTH, capacity, growth
from .errors import BadSchedule, ParseError
from .jsontext import entries, json_text, read_document
from .records import record


@record
class StageStep:
    """One schedule row: cumulative width reached over a stage's duration."""

    name: str
    k_cumulative: int
    duration: float
    l_n: float


@record
class StageSchedule:
    """Ordered educational stages with cumulative widths and rates.

    Widths are integers in ``1..MAX_WIDTH`` that never fall, durations are
    positive and finite, and each rate ``l_n`` is its step's width gain over
    its duration; a step that breaks one is refused as ``stages[i]``.
    """

    stages: tuple[StageStep, ...]

    def __post_init__(self):
        previous_k = 0
        for position, step in enumerate(self.stages):
            name, k, duration = step.name, step.k_cumulative, step.duration
            if not isinstance(name, str) or not name:
                raise ParseError(f"stages[{position}]: 'name' must be a non-empty string")
            if k.__class__ is not int:
                raise ParseError(f"stages[{position}]: 'K' must be an integer")
            if duration.__class__ is not int and duration.__class__ is not float:
                raise ParseError(f"stages[{position}]: 'duration' must be a number")
            prefix = f"stages[{position}]: stage {name!r}"
            if k < 1:
                raise BadSchedule(f"{prefix} needs a positive integer width, got {k!r}")
            if k > MAX_WIDTH:
                raise BadSchedule(f"{prefix} needs a width of at most {MAX_WIDTH}, got {k!r}")
            if k < previous_k:
                raise BadSchedule(f"{prefix}: cumulative width decreases "
                                  f"({previous_k} then {k})")
            if not 0 < duration < math.inf:
                raise BadSchedule(f"{prefix} needs a positive finite duration, got {duration!r}")
            l_n = _rate(k, previous_k, duration)
            if not math.isfinite(l_n):
                raise BadSchedule(f"{prefix} is out of floating-point range")
            if step.l_n != l_n:
                raise BadSchedule(f"{prefix} has rate {step.l_n!r}, but its widths give {l_n!r}")
            previous_k = k


def _rate(k, previous_k, duration) -> float:
    """Width gained per unit of duration; ``nan`` when the numbers give none."""
    try:
        return (k - previous_k) / float(duration)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return math.nan


#: The usual school path as a schedule document; durations are in years.
_DEFAULT_SCHEDULE = {"stages": [
    {"name": "KG", "K": 2, "duration": 3.0},
    {"name": "Elementary", "K": 5, "duration": 6.0},
    {"name": "Middle", "K": 8, "duration": 3.0},
    {"name": "High", "K": 12, "duration": 3.0},
    {"name": "Undergraduate", "K": 16, "duration": 4.0},
    {"name": "Graduate", "K": 20, "duration": 5.0},
]}


def default_schedule() -> StageSchedule:
    """The cumulative acquisition path KG through Graduate."""
    return load_schedule(_DEFAULT_SCHEDULE)


def load_schedule(source: "str | Path | dict | None" = None) -> StageSchedule:
    """Schedule from JSON: {"stages": [{"name", "K", "duration"}, ...]}.

    Per-stage rates are always recomputed from the width deltas.
    """
    if source is None:
        return default_schedule()
    doc = read_document(source, "schedule")
    if "stages" not in doc:
        raise ParseError("schedule must carry a 'stages' list")
    steps, previous_k = [], 0
    for _, entry in entries(doc, "stages", "schedule"):
        k, duration = entry.get("K"), entry.get("duration", 1.0)
        steps.append(StageStep(entry.get("name"), k, duration, _rate(k, previous_k, duration)))
        previous_k = k
    return StageSchedule(tuple(steps))


def serialize_schedule(schedule: StageSchedule) -> str:
    """Deterministic JSON text; loads back to an equal schedule."""
    stages = [{"name": s.name, "K": s.k_cumulative, "duration": s.duration}
              for s in schedule.stages]
    return json_text({"stages": stages})


@record
class ConeRow:
    """Capacity and load metrics for one schedule stage."""

    stage: str
    K: int
    K_NRC: int
    K_RC: float
    R_scale: float
    R_scale_norm: float


def cone(schedule: StageSchedule, c_0: float = 1.0) -> list[ConeRow]:
    """Per-stage capacity growth along a schedule: the widening of reach.

    Each row pairs the stage's cumulative-width capacity metrics with its
    introduction rate normalized against learner capacity ``c_0``.  The
    schedule checked its steps when it was built, so each rate comes from the
    widths.
    """
    rows = []
    for step in schedule.stages:
        report = capacity(step.k_cumulative)
        params = growth(step.l_n, c_0)
        rows.append(ConeRow(
            stage=step.name,
            K=report.K,
            K_NRC=report.K_NRC,
            K_RC=report.K_RC,
            R_scale=params.R_scale,
            R_scale_norm=params.R_scale_norm,
        ))
    return rows
