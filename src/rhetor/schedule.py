"""Stage schedules and the growth cone: per-stage capacity metrics and the
rhetorical-scalable parameter along a schedule of cumulative widths.
"""
from __future__ import annotations

import math
from pathlib import Path

from .capacity import MAX_WIDTH, capacity, growth
from .errors import BadSchedule, ParseError, shown
from .jsontext import entries, json_text, read_document
from .records import record


@record
class StageStep:
    """One schedule row: the cumulative width a stage reaches over its
    duration. Its rate is worked out from the widths, not stored."""

    name: str
    k_cumulative: int
    duration: float


@record
class StageSchedule:
    """Ordered educational stages with cumulative widths.

    Widths are integers in ``1..MAX_WIDTH`` that never fall, durations are
    positive and finite, and each step's rate, its width gain over its
    duration, is finite; a step that breaks one is refused as ``stages[i]``.
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
            prefix = f"stages[{position}]: stage {shown(name)}"
            if k < 1:
                raise BadSchedule(f"{prefix} needs a positive integer width, got {shown(k)}")
            if k > MAX_WIDTH:
                raise BadSchedule(f"{prefix} needs a width of at most {MAX_WIDTH}, got {shown(k)}")
            if k < previous_k:
                raise BadSchedule(f"{prefix}: cumulative width decreases "
                                  f"({previous_k} then {k})")
            if not 0 < duration < math.inf:
                raise BadSchedule(f"{prefix} needs a positive finite duration, "
                                  f"got {shown(duration)}")
            if not math.isfinite(_rate(k, previous_k, duration)):
                raise BadSchedule(f"{prefix} is out of floating-point range")
            previous_k = k


def _rate(k: int, previous_k: int, duration: float) -> float:
    """Width gained per unit of a checked duration; ``nan`` when it is beyond float range."""
    try:
        return (k - previous_k) / float(duration)
    except OverflowError:
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
    """Schedule from JSON: {"stages": [{"name", "K", "duration"}, ...]}."""
    if source is None:
        return default_schedule()
    doc = read_document(source, "schedule")
    if "stages" not in doc:
        raise ParseError("schedule must carry a 'stages' list")
    return StageSchedule(tuple(
        StageStep(entry.get("name"), entry.get("K"), entry.get("duration", 1.0))
        for _, entry in entries(doc, "stages", "schedule")))


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
    introduction rate, the width gained over the previous stage per unit of
    duration, normalized against learner capacity ``c_0``.
    """
    rows, previous_k = [], 0
    for step in schedule.stages:
        report = capacity(step.k_cumulative)
        params = growth(_rate(step.k_cumulative, previous_k, step.duration), c_0)
        previous_k = step.k_cumulative
        rows.append(ConeRow(
            stage=step.name,
            K=report.K,
            K_NRC=report.K_NRC,
            K_RC=report.K_RC,
            R_scale=params.R_scale,
            R_scale_norm=params.R_scale_norm,
        ))
    return rows
