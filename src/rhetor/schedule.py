"""Stage schedules and the growth cone: per-stage capacity metrics and the
rhetorical-scalable parameter along a schedule of cumulative widths.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

from .capacity import MAX_WIDTH, capacity, growth
from .errors import BadSchedule, ParseError
from .jsontext import entries, json_text, read_document, text_field
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
    """Ordered educational stages with cumulative widths and rates."""

    stages: tuple[StageStep, ...]


#: (name, cumulative width, duration in years) for the usual school path.
_DEFAULT_SCHEDULE_ROWS = (
    ("KG", 2, 3.0),
    ("Elementary", 5, 6.0),
    ("Middle", 8, 3.0),
    ("High", 12, 3.0),
    ("Undergraduate", 16, 4.0),
    ("Graduate", 20, 5.0),
)


def _build_schedule(rows: Iterable[tuple[str, int, float]]) -> StageSchedule:
    """Schedule from ``(name, width, duration)`` rows of names, ints and real numbers."""
    steps = []
    previous_k = 0
    for position, (name, k, duration) in enumerate(rows):
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
        try:
            duration = float(duration)
            l_n = (k - previous_k) / duration
        except OverflowError:
            l_n = math.inf
        if not math.isfinite(l_n):
            raise BadSchedule(f"{prefix} is out of floating-point range")
        steps.append(StageStep(name=name, k_cumulative=k, duration=duration, l_n=l_n))
        previous_k = k
    return StageSchedule(tuple(steps))


def default_schedule() -> StageSchedule:
    """The cumulative acquisition path KG through Graduate."""
    return _build_schedule(_DEFAULT_SCHEDULE_ROWS)


def load_schedule(source: "str | Path | dict | None" = None) -> StageSchedule:
    """Schedule from JSON: {"stages": [{"name", "K", "duration"}, ...]}.

    Per-stage rates are always recomputed from the width deltas.
    """
    if source is None:
        return default_schedule()
    doc = read_document(source, "schedule")
    if "stages" not in doc:
        raise ParseError("schedule must carry a 'stages' list")
    rows = []
    for where, entry in entries(doc, "stages", "schedule"):
        name = text_field(entry, "name", where, required=True)
        k = entry.get("K")
        duration = entry.get("duration", 1.0)
        if not isinstance(k, int) or isinstance(k, bool):
            raise ParseError(f"{where}: 'K' must be an integer")
        if not isinstance(duration, (int, float)) or isinstance(duration, bool):
            raise ParseError(f"{where}: 'duration' must be a number")
        rows.append((name, k, duration))
    return _build_schedule(rows)


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
    introduction rate normalized against learner capacity ``c_0``.  The steps
    pass the loader's checks again, so each rate comes from the widths.
    """
    checked = _build_schedule((s.name, s.k_cumulative, s.duration) for s in schedule.stages)
    rows = []
    for step in checked.stages:
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
