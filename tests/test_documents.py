import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    AnnotatedDocument,
    BadCount,
    BadIndex,
    BadRuleSet,
    BadSchedule,
    EmptySegment,
    NotEnoughStages,
    ParseError,
    RhetorError,
    Segment,
    StageMapping,
    StageSchedule,
    StageStep,
    UnknownMode,
    UnmappedStage,
    analyze_coverage,
    cone,
    default_registry,
    default_schedule,
    estimate_rri,
    load_schedule,
    load_registry,
    load_stage_map,
    parse_document,
    serialize_document,
    serialize_schedule,
    trace_layers,
    unite,
)
from rhetor.pyramid import C


def make_doc(*stage_modes, doc_id="synthetic", declared_k=None):
    """Document with one segment per (stage, modes) entry."""
    segments = tuple(
        Segment(index=i, stage=stage, modes=frozenset(modes))
        for i, (stage, modes) in enumerate(stage_modes, start=1))
    return AnnotatedDocument(doc_id, segments, declared_k)


class TestParsing:
    def test_lesson_fixture(self, lesson, registry):
        assert lesson.id == "lesson-nature-of-memory"
        assert lesson.declared_K == 20
        assert lesson.stages() == ("Part I", "Part II", "Part III")
        assert len(lesson.mode_union()) == 14

    def test_stage_mode_sets(self, lesson):
        assert lesson.stage_modes("Part I") == {
            "narration", "definition", "exemplification", "evidence"}
        assert lesson.stage_modes("Part II") == {
            "description", "analogy", "classification", "contrast", "effect",
            "process-analysis"}
        assert lesson.stage_modes("Part III") == {
            "persuasion", "exposition", "problem", "evaluation"}

    def test_aliases_resolve(self, lesson):
        # The fixture spells narration as "narrative" and splits
        # "process analysis" with a space; both land on canonical ids.
        union = lesson.mode_union()
        assert "narration" in union and "narrative" not in union
        assert "process-analysis" in union

    def test_comments_and_blank_lines_skipped(self, registry):
        doc = parse_document(
            "# heading\n\ndoc tiny\nstage S\n# mid comment\nseg | narration\n")
        assert doc.id == "tiny"
        assert len(doc.segments) == 1

    def test_segment_text_preserved(self):
        doc = parse_document("doc t\nstage S\nseg | narration | The story so far.\n")
        assert doc.segments[0].text == "The story so far."

    def test_explicit_indices(self):
        doc = parse_document(
            "doc t\nstage S\nseg | narration\nseg 5 | definition\nseg | contrast\n")
        assert [s.index for s in doc.segments] == [1, 5, 6]

    def test_path_source(self, lesson_path, lesson):
        assert parse_document(lesson_path) == lesson


class TestParsingDiagnostics:
    def test_unknown_mode_carries_line_and_hint(self):
        with pytest.raises(UnknownMode) as err:
            parse_document("doc t\nstage S\nseg | narationn\n")
        assert err.value.line == 3
        assert "narration" in str(err.value)

    def test_empty_mode_list(self):
        with pytest.raises(EmptySegment) as err:
            parse_document("doc t\nstage S\nseg |  ,  \n")
        assert err.value.line == 3

    def test_decreasing_index(self):
        with pytest.raises(BadIndex) as err:
            parse_document("doc t\nstage S\nseg 4 | narration\nseg 2 | contrast\n")
        assert err.value.line == 4

    def test_segment_before_stage(self):
        with pytest.raises(ParseError) as err:
            parse_document("doc t\nseg | narration\n")
        assert err.value.line == 2

    def test_unrecognized_line(self):
        with pytest.raises(ParseError) as err:
            parse_document("doc t\nstage S\nsegment | narration\n")
        assert err.value.line == 3

    def test_duplicate_doc_header(self):
        with pytest.raises(ParseError):
            parse_document("doc a\ndoc b\n")

    def test_bad_declared_width(self):
        with pytest.raises(ParseError):
            parse_document("doc t\ndeclared_K twenty\n")

    @pytest.mark.parametrize("width", ["0", "00", "-3", "+3", "1_000", "٣", "3.0", "",
                                       pytest.param("9" * 5000, id="5000-digits")])
    def test_declared_width_needs_positive_ascii_digits(self, width):
        with pytest.raises(ParseError, match="positive integer") as err:
            parse_document(f"doc t\n\ndeclared_K {width}\nstage S\nseg | narration\n")
        assert err.value.line == 3

    def test_declared_width_with_leading_zero(self):
        doc = parse_document("doc t\ndeclared_K 007\nstage S\nseg | narration\n")
        assert doc.declared_K == 7

    def test_junk_tag_is_unknown_under_extra_aliases(self):
        registry = load_registry({"aliases": {"tale": "narration"}})
        with pytest.raises(UnknownMode) as err:
            parse_document("doc d\nstage s\nseg | ?, description\n", registry)
        assert err.value.line == 3

    def test_declared_width_below_usage(self):
        with pytest.raises(BadCount):
            parse_document("doc t\ndeclared_K 1\nstage S\nseg | narration, contrast\n")

    def test_missing_separator(self):
        with pytest.raises(ParseError):
            parse_document("doc t\nstage S\nseg narration\n")


    def test_non_utf8_file_reports_line(self, tmp_path):
        file = tmp_path / "bad.rma"
        file.write_bytes(b"doc t\nstage S\nseg | narration | caf\xe9\n")
        with pytest.raises(ParseError) as excinfo:
            parse_document(file)
        assert excinfo.value.line == 3


# The segment-line grammar, one row per rule: the lines that follow
# "doc t" and "stage S", and the segment they parse to or the error they
# raise as (class, message, line, suggestions).
SEGMENT_LINES = [
    (["seg"],
     (ParseError, "segment line needs '|'-separated mode names (line 3)", 3, None)),
    (["seg narration"],
     (ParseError, "segment line needs '|'-separated mode names (line 3)", 3, None)),
    (["seg x | narration"],
     (ParseError, "segment index must be an integer, got 'x' (line 3)", 3, None)),
    (["seg 1 2 | narration"],
     (ParseError, "unrecognized segment head 'seg 1 2' (line 3)", 3, None)),
    (["seg 0 | narration"],
     (BadIndex, "segment index 0 repeats or decreases (last was 0) (line 3)", 3, None)),
    (["seg 5 | narration", "seg 2 | narration"],
     (BadIndex, "segment index 2 repeats or decreases (last was 5) (line 4)", 4, None)),
    (["seg | , ,"],
     (EmptySegment, "segment 1 lists no modes (line 3)", 3, None)),
    (["seg | narration, nope"],
     (UnknownMode, "no mode named 'nope' (line 3)", 3, ())),
    (["seg | narraton, nope"],
     (UnknownMode, "no mode named 'narraton' (line 3); did you mean: narration?", 3,
      ("narration",))),
    (["seg\t| narration"],
     (ParseError, "unrecognized line 'seg\\t| narration' (line 3)", 3, None)),
    (["segment | narration"],
     (ParseError, "unrecognized line 'segment | narration' (line 3)", 3, None)),
    (["seg|narration|a|b"],
     Segment(1, "S", frozenset({"narration"}), "a|b")),
    (["seg  3  |  narration ,, Tale |  t  "],
     Segment(3, "S", frozenset({"narration"}), "t")),
]


@pytest.mark.parametrize("lines, expected", SEGMENT_LINES,
                         ids=[repr(lines[-1]) for lines, _ in SEGMENT_LINES])
def test_segment_line_grammar(lines, expected):
    registry = load_registry({"aliases": {"tale": "narration"}})
    text = "doc t\nstage S\n" + "".join(line + "\n" for line in lines)
    try:
        got = parse_document(text, registry).segments[-1]
    except RhetorError as exc:
        got = (type(exc), str(exc), exc.line, getattr(exc, "suggestions", None))
    assert got == expected


class TestRoundTrip:
    def test_lesson(self, lesson):
        assert parse_document(serialize_document(lesson)) == lesson

    def test_sparse_indices_survive(self):
        doc = parse_document(
            "doc t\nstage A\nseg 2 | narration\nstage B\nseg 7 | contrast | said\n")
        again = parse_document(serialize_document(doc))
        assert again == doc
        assert [s.index for s in again.segments] == [2, 7]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python writes an int of any length")
    def test_index_this_python_cannot_write_is_refused(self):
        segments = (Segment(1, "A", frozenset({"narration"})),
                    Segment(10**5000, "A", frozenset({"contrast"})))
        with pytest.raises(ParseError, match=r"^segment index <int out of floating-point "
                           r"range> of 'd' has more digits than this Python writes$"):
            AnnotatedDocument("d", segments)

    def test_long_index_this_python_writes_round_trips(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)  # no limit
        try:
            doc = AnnotatedDocument("d", (Segment(10**5000, "A", frozenset({"narration"})),))
            assert parse_document(serialize_document(doc)) == doc
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_serialization_is_stable(self, lesson):
        text = serialize_document(lesson)
        assert serialize_document(parse_document(text)) == text

    def test_generated_unite_id_round_trips(self, registry):
        mode = unite(registry, "narration", "analogy")
        extended = registry.with_modes([mode])
        doc = AnnotatedDocument("d", (Segment(1, "A", frozenset({mode.id, "cause"})),))
        text = serialize_document(doc)
        assert "seg | analogy--narration, cause" in text
        assert parse_document(text, extended) == doc

    def test_unregistered_joined_id_is_refused_not_respelled(self, registry):
        """A mode id is looked up as written: ``cause--effect`` is not ``cause-effect``."""
        doc = AnnotatedDocument("d", (Segment(1, "A", frozenset({"cause--effect"})),))
        text = serialize_document(doc)
        assert text == "doc d\nstage A\nseg | cause--effect\n"
        with pytest.raises(UnknownMode, match="no mode named 'cause--effect'"):
            parse_document(text, registry)

    @pytest.mark.parametrize("doc_id, stage, text, message", [
        ("d", "A\nstage B", "", "segment 2 stage 'A\\nstage B' holds a line break"),
        ("d", "A", "one\ntwo", "segment 2 text 'one\\ntwo' holds a line break"),
        ("d", "A", "x\u2028y", "segment 2 text 'x\\u2028y' holds a line break"),
        ("d\x85x", "A", "", "doc id 'd\\x85x' holds a line break"),
        ("d", " A", "", "segment 2 stage ' A' has leading or trailing whitespace"),
        ("d", "A", " padded ", "segment 2 text ' padded ' has leading or trailing whitespace"),
        ("", "A", "", "doc id is empty"),
        ("d", "", "", "segment 2 stage is empty"),
        ("d", None, "", "segment 2 stage must be a str, got None"),
    ])
    def test_unwritable_field_is_named(self, doc_id, stage, text, message):
        segment = Segment(2, stage, frozenset({"narration"}), text)
        with pytest.raises(ParseError) as err:
            AnnotatedDocument(doc_id, (segment,))
        assert str(err.value) == message

    @pytest.mark.parametrize("modes, declared_k, message", [
        ({"narration, contrast"}, None,
         "segment 1 modes 'narration, contrast' holds 'narration, contrast', "
         "which is not a canonical mode id"),
        ({"contrast", "narration|x"}, None,
         "segment 1 modes 'contrast, narration|x' holds 'narration|x', "
         "which is not a canonical mode id"),
        ({"narration", ""}, None,
         "segment 1 modes ', narration' holds '', which is not a canonical mode id"),
        ({"Narration"}, None,
         "segment 1 modes 'Narration' holds 'Narration', which is not a canonical mode id"),
        ({"cause effect"}, None,
         "segment 1 modes 'cause effect' holds 'cause effect', "
         "which is not a canonical mode id"),
        ({"a\nb"}, None, "segment 1 modes 'a\\nb' holds a line break"),
        ({"9lives"}, None,
         "segment 1 modes '9lives' holds '9lives', which is not a canonical mode id"),
        (None, 0, "declared_K must be a positive integer, got 0"),
    ])
    def test_unwritable_modes_or_width_is_named(self, modes, declared_k, message):
        segments = (Segment(1, "A", frozenset(modes)),) if modes else ()
        with pytest.raises(ParseError) as err:
            AnnotatedDocument("d", segments, declared_k)
        assert str(err.value) == message

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_serialize_raises_or_round_trips(self, data):
        """Any document over built-in modes either writes out exactly or is
        refused; one that names an unregistered mode id is refused on parse."""
        ids = sorted(m.id for m in default_registry())
        unregistered = {"cause--effect", "zz"}  # mode ids no built-in mode has
        # Mode names that are not mode ids: parsing would split, re-case or
        # drop them.
        names = ids + sorted(unregistered) + ["narration, contrast", "narration|x", "",
                                              "Narration", "cause effect", " narration",
                                              "a\nb", "9lives"]
        segments, index = [], 0
        for _ in range(data.draw(st.integers(0, 6))):
            index += data.draw(st.integers(1, 3))
            modes = data.draw(st.frozensets(st.sampled_from(names), min_size=1, max_size=3))
            segments.append((index, data.draw(st.text(max_size=8)), modes,
                             data.draw(st.text(max_size=12))))
        used = len(frozenset().union(*(modes for _, _, modes, _ in segments)))
        declared_k = data.draw(st.sampled_from([None, used, used + 2]))
        doc_id = data.draw(st.text(max_size=8))
        try:
            doc = AnnotatedDocument(doc_id, tuple(Segment(*fields) for fields in segments),
                                    declared_k)
        except ParseError:
            return
        text = serialize_document(doc)
        if unregistered.isdisjoint(doc.mode_union()):
            assert parse_document(text) == doc
        else:
            with pytest.raises(UnknownMode):
                parse_document(text)


class TestCoverage:
    def test_lesson_example(self, lesson):
        report = analyze_coverage(lesson)
        assert report.K_u == 14
        assert report.K == 20
        assert report.C_m == pytest.approx(0.7, rel=1e-12)
        assert report.band == "high"

    def test_explicit_width_overrides(self, lesson):
        assert analyze_coverage(lesson, k=28).C_m == pytest.approx(14 / 28)

    def test_no_width_anywhere(self):
        doc = make_doc(("S", {"narration"}))
        with pytest.raises(BadCount):
            analyze_coverage(doc)

    def test_width_below_usage(self, lesson):
        with pytest.raises(BadCount):
            analyze_coverage(lesson, k=13)

    @pytest.mark.parametrize("modes", ["narration", ("narration",), {"narration"},
                                       frozenset({"narration", 1})])
    def test_segment_refuses_modes_not_a_frozenset_of_str(self, modes):
        # A str would count its letters: K_u=6 for "narration".
        with pytest.raises(ParseError, match=r"segment 1 modes must be a frozenset of str"):
            Segment(1, "A", modes)


class TestLayerTrace:
    def test_lesson_trace(self, lesson, graph, lesson_map_path):
        trace = trace_layers(lesson, graph, load_stage_map(lesson_map_path))
        assert trace.doc_id == lesson.id
        by_stage = {t.stage: t for t in trace.stages}
        assert by_stage["Part I"].mismatch == frozenset()
        assert by_stage["Part II"].mismatch == {
            "classification", "contrast", "description", "effect"}
        assert by_stage["Part III"].mismatch == {"problem"}
        assert trace.e_ids == ("teaching-learning",)

    def test_overlap_partitions_observed(self, lesson, graph, lesson_map_path):
        trace = trace_layers(lesson, graph, load_stage_map(lesson_map_path))
        for stage in trace.stages:
            assert stage.overlap | stage.mismatch == stage.observed
            assert stage.overlap & stage.mismatch == frozenset()
            assert stage.overlap <= stage.expected

    def test_c_names_resolve_loosely(self, graph):
        doc = make_doc(("S", {"evidence"}))
        trace = trace_layers(doc, graph, [
            StageMapping("S", ("Test/Validate",), "Scientific Discovery")])
        assert trace.stages[0].c_ids == ("test-validate",)
        assert trace.stages[0].e_id == "scientific-discovery"

    def test_unmapped_stage(self, lesson, graph):
        with pytest.raises(UnmappedStage):
            trace_layers(lesson, graph, load_stage_map({"stages": [
                {"stage": "Part I", "c": ["observe"], "e": "teaching-learning"}]}))

    def test_stage_mapped_twice_in_code(self, graph):
        # A map built in code goes through the loader's rule: no last entry wins.
        doc = make_doc(("s", {"narration"}))
        with pytest.raises(ParseError, match=r"^stages\[1\]: stage 's' is mapped twice$"):
            trace_layers(doc, graph, [
                StageMapping("s", ("observe",), "teaching-learning"),
                StageMapping("s", ("infer",), "scientific-discovery")])

    def test_stage_map_validation(self):
        with pytest.raises(ParseError):
            load_stage_map({"stages": [{"stage": "S", "c": [], "e": "x"}]})
        with pytest.raises(ParseError):
            load_stage_map({"stages": [{"stage": "", "c": ["observe"], "e": "x"}]})
        with pytest.raises(ParseError):
            load_stage_map("{bad json")

    @given(st.sets(st.sampled_from(
        ["description", "narration", "exemplification", "evidence"]),
        min_size=1, max_size=4))
    @settings(max_examples=30)
    def test_observed_within_expected_never_mismatches(self, graph, modes):
        doc = make_doc(("S", modes))
        trace = trace_layers(doc, graph, [
            StageMapping("S", ("observe",), "teaching-learning")])
        assert trace.stages[0].mismatch == frozenset()

    def test_outside_mode_always_mismatches(self, graph):
        expected = {r.id for r in graph.children(C, "observe")}
        assert "persuasion" not in expected
        doc = make_doc(("S", {"narration", "persuasion"}))
        trace = trace_layers(doc, graph, [
            StageMapping("S", ("observe",), "teaching-learning")])
        assert trace.stages[0].mismatch == {"persuasion"}


class TestRriEstimation:
    def test_half_mode_per_stage(self):
        docs = [
            (1.0, make_doc(("S", {"narration", "description"}))),
            (3.0, make_doc(("S", {"narration", "definition"}))),
        ]
        estimate = estimate_rri(docs)
        assert estimate.cumulative == ((1.0, 2), (3.0, 3))
        interval = estimate.intervals[0]
        assert interval.new_modes == {"definition"}
        assert interval.L_n == pytest.approx(0.5)

    def test_repeats_do_not_count_twice(self):
        docs = [
            (1.0, make_doc(("S", {"narration"}))),
            (2.0, make_doc(("S", {"narration"}))),
            (3.0, make_doc(("S", {"narration", "contrast", "definition"}))),
        ]
        estimate = estimate_rri(docs)
        assert [n for _, n in estimate.cumulative] == [1, 1, 3]
        assert estimate.intervals[0].L_n == 0.0
        assert estimate.intervals[1].L_n == pytest.approx(2.0)

    def test_telescoping(self):
        docs = [
            (1.0, make_doc(("S", {"narration", "description"}))),
            (2.0, make_doc(("S", {"analogy"}))),
            (4.0, make_doc(("S", {"narration", "problem", "solution"}))),
        ]
        estimate = estimate_rri(docs)
        first = estimate.cumulative[0][1]
        last = estimate.cumulative[-1][1]
        assert sum(len(i.new_modes) for i in estimate.intervals) == last - first
        assert [n for _, n in estimate.cumulative] == sorted(
            n for _, n in estimate.cumulative)

    def test_too_few_stages(self):
        with pytest.raises(NotEnoughStages):
            estimate_rri([(1.0, make_doc(("S", {"narration"})))])

    def test_non_increasing_indices(self):
        docs = [
            (2.0, make_doc(("S", {"narration"}))),
            (2.0, make_doc(("S", {"contrast"}))),
        ]
        with pytest.raises(BadIndex):
            estimate_rri(docs)

    # Here and below, a case with several bad indices has an id that lists them all.
    @pytest.mark.parametrize("indices, named", [
        ((math.nan, 1.0), "nan"),
        ((0.0, math.inf), "inf"),
        pytest.param((-math.inf, 0.0, math.nan), "-inf and 1 other",
                     id="indices2--inf, nan"),
        ((math.nan,) * 10**4, "nan and 9999 others"),  # a short text, whatever the count
    ])
    def test_non_finite_indices(self, indices, named):
        docs = [(i, make_doc(("S", {"narration"}))) for i in indices]
        with pytest.raises(BadIndex, match=f"^stage indices must be finite, got {named}$"):
            estimate_rri(docs)

    @pytest.mark.parametrize("indices, named", [
        pytest.param(("a", "b"), "'a' and 1 other", id="indices0-'a', 'b'"),
        pytest.param((False, True), "False and 1 other", id="indices1-False, True"),
        ((1.0, None, 3), "None"),
        ((0, 1j), "1j"),
        (("s",) * 10**4, "'s' and 9999 others"),
    ])
    def test_indices_that_are_not_real_numbers(self, indices, named):
        docs = [(i, make_doc(("S", {"narration"}))) for i in indices]
        with pytest.raises(BadIndex) as caught:
            estimate_rri(docs)
        assert str(caught.value) == f"stage indices must be real numbers, got {named}"

    @pytest.mark.parametrize("docs, position", [
        ([1, 2], 0),
        ([(1, "d"), (2, "x")], 0),
        ([(1, None), (2, "x")], 0),
        ([(1, make_doc(("S", {"narration"}))), (2, "x")], 1),
        ([(1, make_doc(("S", {"narration"})), 3), (2, make_doc(("S", {"narration"})))], 0),
        ([(1, make_doc(("S", {"narration"}))), (2,)], 1),
    ], ids=["ints", "str-docs", "none-doc", "str-second-doc", "triple", "single"])
    def test_entry_that_is_not_a_stage_document_pair(self, docs, position):
        with pytest.raises(ParseError) as caught:
            estimate_rri(docs)
        assert str(caught.value) == (f"docs[{position}]: not a (stage index, "
                                     f"AnnotatedDocument) pair")

    def test_exact_real_indices_are_accepted(self):
        docs = [(Fraction(1, 2), make_doc(("S", {"narration"}))),
                (1, make_doc(("S", {"narration", "contrast"})))]
        assert estimate_rri(docs).intervals[0].L_n == 2


class TestSchedules:
    def test_default_rows(self):
        schedule = default_schedule()
        names = [s.name for s in schedule.stages]
        assert names == ["KG", "Elementary", "Middle", "High",
                         "Undergraduate", "Graduate"]
        widths = [s.k_cumulative for s in schedule.stages]
        assert widths == [2, 5, 8, 12, 16, 20]

    def test_rates_from_deltas(self):
        by_stage = {r.stage: r for r in cone(default_schedule())}
        assert by_stage["KG"].R_scale == pytest.approx(2 / 3)
        assert by_stage["Elementary"].R_scale == pytest.approx(0.5)
        assert by_stage["Middle"].R_scale == pytest.approx(1.0)
        assert by_stage["High"].R_scale == pytest.approx(4 / 3)
        assert by_stage["Graduate"].R_scale == pytest.approx(0.8)

    def test_round_trip(self):
        schedule = default_schedule()
        assert load_schedule(serialize_schedule(schedule)) == schedule

    def test_load_recomputes_rates(self):
        schedule = load_schedule(
            {"stages": [{"name": "a", "K": 4, "duration": 2},
                        {"name": "b", "K": 10, "duration": 3}]})
        assert [row.R_scale for row in cone(schedule)] == [2.0, 2.0]

    def test_default_duration_is_one(self):
        schedule = load_schedule({"stages": [{"name": "a", "K": 4}]})
        assert schedule.stages[0].duration == 1.0
        assert cone(schedule)[0].R_scale == 4.0

    def test_bad_schedules(self):
        with pytest.raises(BadSchedule):
            load_schedule({"stages": [{"name": "a", "K": 5},
                                      {"name": "b", "K": 3}]})
        with pytest.raises(BadSchedule):
            load_schedule({"stages": [{"name": "a", "K": 0}]})
        with pytest.raises(BadSchedule):
            load_schedule({"stages": [{"name": "a", "K": 5, "duration": 0}]})
        with pytest.raises(ParseError):
            load_schedule({"stages": [{"name": "a"}]})
        with pytest.raises(ParseError):
            load_schedule("{bad")

    @pytest.mark.parametrize("duration", ["Infinity", "NaN", "1e999"])
    def test_non_finite_duration(self, duration):
        text = f'{{"stages": [{{"name": "a", "K": 3, "duration": {duration}}}]}}'
        with pytest.raises(BadSchedule):
            load_schedule(text)

    def test_duration_beyond_float_range(self):
        with pytest.raises(BadSchedule):
            load_schedule({"stages": [{"name": "a", "K": 3, "duration": 10**400}]})

    def test_rate_beyond_float_range(self):
        with pytest.raises(BadSchedule, match="out of floating-point range"):
            load_schedule({"stages": [{"name": "a", "K": 3, "duration": 1e-320}]})


class TestCone:
    def test_default_cone(self):
        rows = cone(default_schedule())
        by_stage = {r.stage: r for r in rows}
        assert by_stage["KG"].K_NRC == 3
        assert by_stage["Undergraduate"].K_NRC == 65535
        assert by_stage["Graduate"].K_NRC == 1048575
        assert by_stage["Graduate"].K_RC == pytest.approx(
            math.log2(1048575), abs=1e-12)

    def test_load_normalization(self):
        rows = cone(default_schedule(), c_0=2.0)
        by_stage = {r.stage: r for r in rows}
        assert by_stage["Middle"].R_scale == pytest.approx(1.0)
        assert by_stage["Middle"].R_scale_norm == pytest.approx(0.5)

    def test_row_order_follows_schedule(self):
        rows = cone(default_schedule())
        assert [r.stage for r in rows] == [
            s.name for s in default_schedule().stages]

    def test_widths_capacity_consistent(self):
        for row in cone(default_schedule()):
            assert row.K_NRC == 2 ** row.K - 1

    @pytest.mark.parametrize("steps, message", [
        ((StageStep("b", 121, 1.0),),
         "stages[0]: stage 'b' needs a width of at most 120, got 121"),
        ((StageStep("a", 5, 1.0), StageStep("b", 3, 1.0)),
         "stages[1]: stage 'b': cumulative width decreases (5 then 3)"),
    ], ids=["too-wide", "falling"])
    def test_schedule_built_in_code_is_checked(self, steps, message):
        with pytest.raises(BadSchedule) as caught:
            cone(StageSchedule(steps))
        assert str(caught.value) == message

    def test_rate_comes_from_the_widths(self):
        [row] = cone(StageSchedule((StageStep("a", 5, 1.0),)))
        assert row.R_scale == 5.0


@pytest.mark.parametrize("error, text, line", [
    (ParseError("bad", line=3, column=7), "bad (line 3, column 7)", 3),
    (ParseError("bad", line=3), "bad (line 3)", 3),
    (ParseError("bad"), "bad", None),
    (EmptySegment("empty", line=2), "empty (line 2)", 2),
    (BadIndex("order", line=5), "order (line 5)", 5),
    (UnknownMode("no", ("a", "b"), line=4), "no (line 4); did you mean: a, b?", 4),
    (UnknownMode("no", ("a",)), "no; did you mean: a?", None),
    (BadRuleSet("plain"), "plain", None),
])
def test_error_location_is_formatted_once(error, text, line):
    assert str(error) == text
    assert error.line == line
