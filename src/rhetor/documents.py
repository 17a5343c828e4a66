"""Mode-annotated documents: parsing, coverage, layer tracing, introduction rates.

Annotation files (extension ``.rma``) are line-based UTF-8 text::

    # comment
    doc lesson-nature-of-memory
    declared_K 20
    stage Part I
    seg | narration, definition | Opening story and framing of the topic.
    seg | exemplification | ...

``doc`` names the document, ``declared_K`` optionally states the width of
the available repertoire, ``stage`` opens a stage that following segments
belong to, and each ``seg`` line carries a comma-separated mode list plus
optional free text.  Mode names resolve through the registry, so aliases
and loose spellings work.  Segment indices are assigned 1, 2, 3, ... in
order; a segment may override with ``seg <n> | ...`` as long as indices
stay strictly increasing.

On top of parsed documents this module computes repertoire coverage,
per-stage layer traces against a pyramid graph, and introduction rates
across a staged corpus.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .capacity import CoverageReport, coverage
from .errors import (
    BadCount,
    BadIndex,
    EmptySegment,
    NotEnoughStages,
    ParseError,
    RhetorError,
    UnmappedStage,
    at,
    shown,
)
from .jsontext import entries, names_field, read_document, read_text, text_field
from .pyramid import C, E, PyramidGraph, _realizers
from .records import record
from .registry import Registry, _ID_PATTERN, default_registry


@record
class Segment:
    """One annotated discourse unit: an ``int`` index, a stage label, a
    non-empty frozenset of mode ids, free text."""

    index: int
    stage: str
    modes: frozenset[str]
    text: str = ""

    def __post_init__(self):
        # A plain loop: parsing builds one Segment per segment line, and
        # all() over a generator costs about twice as much.
        if self.index.__class__ is not int:
            raise ParseError(f"segment index must be an int, got {shown(self.index)}")
        modes = self.modes
        if isinstance(modes, frozenset):
            if not modes:
                raise EmptySegment(f"segment {shown(self.index)} lists no modes")
            for mode in modes:
                if not isinstance(mode, str):
                    break
            else:
                return
        raise ParseError(f"segment {shown(self.index)} modes must be a frozenset of str, "
                         f"got {shown(modes)}")


@record
class AnnotatedDocument:
    """An ordered sequence of annotated segments.

    Refused, naming the field, unless it writes out as annotation text that
    parses back equal: the id, stage labels and texts are one-line strings
    without padding (only a text may be empty), mode names are mode ids,
    indices increase, and ``declared_K`` is ``None`` or a positive ``int``
    no smaller than the number of distinct modes used.
    """

    id: str
    segments: tuple[Segment, ...]
    declared_K: int | None = None

    def __post_init__(self):
        _written("doc id", self.id)
        declared = self.declared_K
        if declared is not None and (declared.__class__ is not int or declared < 1):
            raise ParseError(f"declared_K must be a positive integer, got {shown(declared)}")
        previous, stage = 0, object()  # equal to no label: the first one is checked
        for seg in self.segments:
            if seg.index <= previous:
                raise BadIndex(f"segment index {shown(seg.index)} of {shown(self.id)} "
                               f"does not increase")
            previous = seg.index
            # _written names the segment, so it runs only on a label or text that
            # may not read back.  A line break is not printable; nor is a tab,
            # which _written passes.
            if seg.stage != stage:
                stage = seg.stage
                if (stage.__class__ is not str or not stage or stage.strip() != stage
                        or not stage.isprintable()):
                    _written(f"segment {shown(seg.index)} stage", stage)
            text = seg.text
            if text.__class__ is not str or text.strip() != text or not text.isprintable():
                _written(f"segment {shown(seg.index)} text", text)
        try:
            str(previous)  # the last index, so the largest
        except ValueError:  # beyond the int-to-text digit limit (Python 3.11, 3.10.7)
            raise ParseError(f"segment index {shown(previous)} of {shown(self.id)} has more "
                             f"digits than this Python writes") from None
        used = self.mode_union()
        # Each distinct mode name is tested once.
        bad = {name for name in used if not _ID_PATTERN.match(name)}
        if bad:
            seg = next(seg for seg in self.segments if not bad.isdisjoint(seg.modes))
            field = f"segment {shown(seg.index)} modes"
            modes = _written(field, ", ".join(sorted(seg.modes)))
            raise ParseError(f"{field} {shown(modes)} holds {shown(min(bad & seg.modes))}, "
                             f"which is not a canonical mode id")
        if declared is not None and declared < len(used):
            raise BadCount(f"declared_K={declared} is below the {len(used)} "
                           f"distinct modes used in {shown(self.id)}")

    def mode_union(self) -> frozenset[str]:
        """All distinct mode ids used anywhere in the document."""
        return frozenset().union(*[seg.modes for seg in self.segments])

    def stages(self) -> tuple[str, ...]:
        """Stage labels in first-appearance order."""
        return tuple(dict.fromkeys(seg.stage for seg in self.segments))

    def stage_modes(self, stage: str) -> frozenset[str]:
        """Union of mode ids over the segments of one stage."""
        return frozenset().union(*[seg.modes for seg in self.segments if seg.stage == stage])


# --- .rma parsing -----------------------------------------------------------

def parse_document(source: "str | Path", registry: Registry | None = None) -> AnnotatedDocument:
    """Parse annotation text (or a file path) into a validated document.

    Diagnostics carry 1-based line numbers; mode names resolve through the
    registry so alias spellings are accepted.
    """
    if isinstance(source, Path):
        source = read_text(source, "annotation file")
    registry = registry if registry is not None else default_registry()

    doc_id = "untitled"
    saw_doc = False
    declared_k: int | None = None
    stage: str | None = None
    segments: list[Segment] = []
    next_index = 1
    lookup = registry._lookup
    new_segment = Segment.__new__  # the whole constructor, without type.__call__ (records.py)

    try:
        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.strip()
            if line.startswith("seg ") or line.startswith("seg|") or line == "seg":
                if stage is None:
                    raise ParseError("segment before any stage line")
                head, bar, rest = line.partition("|")
                if not bar:
                    raise ParseError("segment line needs '|'-separated mode names")
                index = next_index
                head = head.strip()
                if head != "seg":
                    head_tokens = head.split()
                    if len(head_tokens) > 2:
                        raise ParseError(f"unrecognized segment head {shown(head)}")
                    try:
                        index = int(head_tokens[1])
                    except ValueError:
                        raise ParseError(f"segment index must be an integer, got "
                                         f"{shown(head_tokens[1])}") from None
                    if index < next_index:
                        raise BadIndex(f"segment index {shown(index)} repeats or decreases "
                                       f"(last was {shown(next_index - 1)})")
                field, _, text = rest.partition("|")
                modes: set[str] = set()
                for name in field.split(","):
                    name = name.strip()
                    if not name:
                        continue
                    modes.add((lookup(name) or registry.resolve(name)).id)
                segments.append(new_segment(Segment, index, stage, frozenset(modes), text.strip()))
                next_index = index + 1
                continue
            if not line or line.startswith("#"):
                continue
            keyword, _, rest = line.partition(" ")
            rest = rest.strip()
            if keyword == "doc":
                if saw_doc:
                    raise ParseError("duplicate doc header")
                if not rest:
                    raise ParseError("doc header needs an id")
                doc_id = rest
                saw_doc = True
            elif keyword == "declared_K":
                if declared_k is not None:
                    raise ParseError("duplicate declared_K directive")
                try:
                    declared_k = int(rest) if rest.isascii() and rest.isdigit() else 0
                except ValueError:  # more digits than int() converts
                    declared_k = 0
                if declared_k < 1:
                    raise ParseError(f"declared_K needs a positive integer, got {shown(rest)}")
            elif keyword == "stage":
                if not rest:
                    raise ParseError("stage line needs a label")
                stage = rest
            else:
                raise ParseError(f"unrecognized line {shown(line)}")
    except RhetorError as exc:
        raise at(line_no, exc)

    return AnnotatedDocument(doc_id, tuple(segments), declared_k)


def serialize_document(doc: AnnotatedDocument) -> str:
    """Annotation text that parses back to an equal document.

    A pure writer: :class:`AnnotatedDocument` refused at construction every
    field that would not read back as written.
    """
    lines = [f"doc {doc.id}"]
    if doc.declared_K is not None:
        lines.append(f"declared_K {doc.declared_K}")
    current_stage = None
    auto_index = 1
    for seg in doc.segments:
        if seg.stage != current_stage:
            lines.append(f"stage {seg.stage}")
            current_stage = seg.stage
        head = "seg" if seg.index == auto_index else f"seg {seg.index}"
        auto_index = seg.index + 1
        modes = ", ".join(sorted(seg.modes))
        lines.append(f"{head} | {modes} | {seg.text}" if seg.text else f"{head} | {modes}")
    return "\n".join(lines) + "\n"


def _written(field: str, value: str) -> str:
    """``value`` when it reads back as written, else the error naming ``field``."""
    if not isinstance(value, str):
        raise ParseError(f"{field} must be a str, got {shown(value)}")
    if not value:
        raise ParseError(f"{field} is empty")
    if value != value.strip():
        raise ParseError(f"{field} {shown(value)} has leading or trailing whitespace")
    if value.splitlines() != [value]:
        raise ParseError(f"{field} {shown(value)} holds a line break")
    return value


# --- coverage ---------------------------------------------------------------

def analyze_coverage(doc: AnnotatedDocument, k: int | None = None) -> CoverageReport:
    """Coverage of the available repertoire: modes used over width ``k``.

    Falls back to the document's ``declared_K`` when ``k`` is omitted.
    """
    width = k if k is not None else doc.declared_K
    if width is None:
        raise BadCount(f"no width given and {shown(doc.id)} declares none")
    return coverage(len(doc.mode_union()), width)


# --- layer tracing ----------------------------------------------------------

@record
class StageMapping:
    """Declared layer assignment for one stage: its C-functions and E-purpose."""

    stage: str
    c_ids: tuple[str, ...]
    e_id: str


@record
class StageTrace:
    """Observed vs expected modes for one stage under its mapping."""

    stage: str
    c_ids: tuple[str, ...]
    e_id: str
    observed: frozenset[str]
    expected: frozenset[str]
    overlap: frozenset[str]
    mismatch: frozenset[str]


@record
class LayerTrace:
    """Per-stage traces plus the distinct E-purposes the document serves."""

    doc_id: str
    stages: tuple[StageTrace, ...]
    e_ids: tuple[str, ...]


def load_stage_map(source: "str | Path | dict") -> list[StageMapping]:
    """Stage map from JSON: {"stages": [{"stage", "c": [...], "e"}, ...]}.

    Each stage is mapped at most once.
    """
    doc = read_document(source, "stage map")
    return list(_by_stage(
        StageMapping(text_field(entry, "stage", where, required=True),
                     names_field(entry, "c", where, required=True),
                     text_field(entry, "e", where, required=True))
        for where, entry in entries(doc, "stages", "stage map")).values())


def _by_stage(stage_map: Iterable[StageMapping]) -> dict[str, StageMapping]:
    """Each mapping under its stage, in order; a stage mapped twice is refused."""
    by_stage: dict[str, StageMapping] = {}
    for position, mapping in enumerate(stage_map):
        if by_stage.setdefault(mapping.stage, mapping) is not mapping:
            raise ParseError(f"stages[{position}]: stage {shown(mapping.stage)} is mapped twice")
    return by_stage


def trace_layers(
    doc: AnnotatedDocument,
    graph: PyramidGraph,
    stage_map: Iterable[StageMapping],
) -> LayerTrace:
    """Compare each stage's observed modes with the realizers of its C-functions.

    ``expected`` is the union of the graph's R-targets over the stage's
    declared C-functions; ``mismatch`` is whatever was observed outside it.
    A stage mapped twice is refused, as :func:`load_stage_map` refuses it.
    """
    by_stage = _by_stage(stage_map)
    observed_by_stage: dict[str, set[str]] = {}  # first-appearance order
    for seg in doc.segments:
        observed_by_stage.setdefault(seg.stage, set()).update(seg.modes)
    traces: list[StageTrace] = []
    for stage, modes in observed_by_stage.items():
        mapping = by_stage.get(stage)
        if mapping is None:
            raise UnmappedStage(f"stage {shown(stage)} has no entry in the stage map")
        e_node = graph.node(E, mapping.e_id)
        c_ids = tuple([graph.node(C, c_name).id for c_name in mapping.c_ids])
        expected = _realizers(graph, c_ids)
        observed = frozenset(modes)
        traces.append(StageTrace(
            stage=stage,
            c_ids=c_ids,
            e_id=e_node.id,
            observed=observed,
            expected=expected,
            overlap=observed & expected,
            mismatch=observed - expected,
        ))
    e_ids = tuple(dict.fromkeys(trace.e_id for trace in traces))
    return LayerTrace(doc_id=doc.id, stages=tuple(traces), e_ids=e_ids)


# --- introduction-rate estimation -------------------------------------------

@record
class IntervalRate:
    """New-mode introduction rate over one interval of the corpus timeline."""

    start: float
    end: float
    new_modes: frozenset[str]
    L_n: float


@record
class RriEstimate:
    """Cumulative width per stage index and the per-interval rates."""

    cumulative: tuple[tuple[float, int], ...]
    intervals: tuple[IntervalRate, ...]


def _first_of(bad: list) -> str:
    """The first of ``bad`` and a count of the others, so the text stays short."""
    others = len(bad) - 1
    return shown(bad[0]) + (f" and {others} other{'s' * (others > 1)}" if others else "")


def estimate_rri(docs: Sequence[tuple[float, AnnotatedDocument]]) -> RriEstimate:
    """Introduction rates across a staged corpus.

    A mode counts as new at its first appearance anywhere in the timeline;
    each interval's rate is new modes over the stage-index gap.
    """
    if len(docs) < 2:
        raise NotEnoughStages(f"need at least two staged documents, got {len(docs)}")
    for position, entry in enumerate(docs):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and isinstance(entry[1], AnnotatedDocument)):
            raise ParseError(f"docs[{position}]: not a (stage index, AnnotatedDocument) pair")
    from numbers import Real  # here, so that importing rhetor does not load it
    indices = [i for i, _ in docs]
    not_real = [i for i in indices if isinstance(i, bool) or not isinstance(i, Real)]
    if not_real:
        raise BadIndex(f"stage indices must be real numbers, got {_first_of(not_real)}")
    not_finite = [i for i in indices if not abs(i) < float("inf")]  # nan compares false
    if not_finite:
        raise BadIndex(f"stage indices must be finite, got {_first_of(not_finite)}")
    for a, b in zip(indices, indices[1:]):
        if b <= a:
            raise BadIndex(f"stage indices must increase strictly ({shown(a)} then {shown(b)})")

    seen: set[str] = set()
    cumulative: list[tuple[float, int]] = []
    intervals: list[IntervalRate] = []
    previous_index: float | None = None
    for index, doc in docs:
        new = doc.mode_union() - seen
        if previous_index is not None:
            span = index - previous_index
            intervals.append(IntervalRate(
                start=previous_index, end=index,
                new_modes=frozenset(new), L_n=len(new) / span))
        seen.update(new)
        cumulative.append((index, len(seen)))
        previous_index = index
    return RriEstimate(cumulative=tuple(cumulative), intervals=tuple(intervals))
