"""One law per document kind: a value built in code from drawn fields is
either refused at construction with a domain error, or it serializes and
loads back equal.  The ``.rma`` law is ``TestRoundTrip`` in
``test_documents.py``.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    AnnotatedDocument,
    BadEdge,
    DualityRuleSet,
    LayerNode,
    Mode,
    Origin,
    ParseError,
    PyramidGraph,
    Registry,
    RhetorError,
    Segment,
    StageSchedule,
    StageStep,
    default_registry,
    load_pyramid,
    load_registry,
    load_rules,
    load_schedule,
    serialize_pyramid,
    serialize_registry,
    serialize_rules,
    serialize_schedule,
)
from rhetor.pyramid import C, E, R
from rhetor.registry import DEFAULT_ALIASES

# Mode ids no built-in mode has, and names that are not usable: ids of
# built-in modes and aliases, upper case, padding, a leading digit, a
# trailing hyphen, a hyphen run, a "--" join of other names, nothing.
FRESH = ["story", "scene", "aa", "bb", "plot-line", "twist", "arc", "hook"]
TAKEN = ["cause", "narration", "narrative", "Story", " story", "9x", "ab-", "aa---bb",
         "aa--bb", ""]
TEXTS = st.text(max_size=6)


def mostly(good, bad):
    """One of ``good`` (a list, or a strategy to draw from), or one time in
    ten one of ``bad``: most drawn values construct, and the law reaches
    their round trip."""
    good = good if isinstance(good, st.SearchStrategy) else st.sampled_from(good)
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(bad) if i == 0 else good)


# Display names and descriptions; an empty or absent display name loads back
# titled from the id, and a non-str one does not load at all.
DISPLAY_NAMES = mostly(st.text(min_size=1, max_size=6), ["", 5, None])
DESCRIPTIONS = mostly(TEXTS, [7, None])


def laws(test):
    return settings(max_examples=300, deadline=None)(given(data=st.data())(test))


@laws
def test_registry_raises_or_round_trips(data):
    origins = [Origin("base"), Origin("decomposed"), Origin("generated", "user"),
               Origin("generated", "unite", ("aa", "bb"))]
    constituents = mostly([(), ("aa", "bb"), ("cause", "effect")],
                          [("aa",), ("aa", "aa"), ("story", "cause-effect"), ("nope", "aa"),
                           ("aa", "bb", "cause"), ("Cause", "effect")])
    ids = data.draw(st.lists(mostly(FRESH, TAKEN), max_size=4, unique=True))
    modes = [Mode(mode_id, data.draw(DISPLAY_NAMES), data.draw(constituents),
                  data.draw(st.sampled_from(origins)), data.draw(DESCRIPTIONS))
             for mode_id in ids]
    aliases = data.draw(st.dictionaries(mostly(["tale", "yarn", "9lives"], TAKEN),
                                        mostly(["narration", "cause", *ids], ["nope", "Cause"]),
                                        max_size=3))
    version = data.draw(mostly(["v1", "", "é"], [5, None]))
    try:
        # A registry document extends the built-in modes and aliases.
        registry = Registry([*default_registry(), *modes], version,
                            {**aliases, **DEFAULT_ALIASES})
    except RhetorError:
        return
    assert load_registry(serialize_registry(registry)) == registry


# Modes for the merge law: new ones, built-ins restated unchanged, built-ins
# changed, and modes that a registry refuses on their own.
NEW = [Mode("story", "Story"), Mode("scene", "Scene", description="One scene."),
       Mode("twist", "Twist", origin=Origin("generated", "user")),
       Mode("arc", "Arc", ("cause", "narration", "effect"))]
UNCHANGED = [default_registry().get(mode_id) for mode_id in ("narration", "cause-effect",
                                                             "evidence")]
CHANGED = [Mode("narration", "Other"),
           Mode("cause-effect", "Cause-Effect", ("cause", "effect"), description="?"),
           Mode("evidence", "Evidence", origin=Origin("decomposed"))]
REFUSED = [Mode("Bad Id", "Bad"), Mode("aa--bb", "Join"), Mode("solo", "Solo", ("story",)),
           Mode("twin", "Twin", ("cause", "cause"))]


def registry_entry(mode):
    """``mode`` as an entry of a registry document's ``modes`` list."""
    origin = mode.origin
    return {"id": mode.id, "display_name": mode.display_name,
            "constituents": list(mode.constituents), "description": mode.description,
            "origin": (origin.kind if origin.kind != "generated"
                       else {"operator": origin.operator, "inputs": list(origin.inputs)})}


def outcome(build):
    try:
        return build()
    except RhetorError as exc:
        return exc


@laws
def test_with_modes_and_load_registry_merge_by_one_rule(data):
    """The built-ins extended in code and by a registry document agree: both
    give one registry, or both raise one error with one text, which names the
    mode where the list first fails."""
    modes = data.draw(st.lists(st.sampled_from(NEW + UNCHANGED + CHANGED + REFUSED),
                               max_size=5))
    in_code = outcome(lambda: default_registry().with_modes(modes))
    loaded = outcome(lambda: load_registry({"modes": [registry_entry(m) for m in modes]}))
    if isinstance(in_code, Registry):
        assert loaded == in_code
        return
    first = next(i for i in range(len(modes)) if isinstance(
        outcome(lambda: default_registry().with_modes(modes[:i + 1])), RhetorError))
    assert type(loaded) is type(in_code)
    assert str(loaded) == str(in_code)
    assert str(in_code).startswith(f"modes[{first}]: ")


@laws
def test_rules_raise_or_round_trip(data):
    names = mostly(FRESH + ["cause", "Story", " scene"], ["", "9x", "aa--bb", "a b c"])
    pairs = st.lists(mostly([2], [1, 3]).flatmap(lambda n: st.lists(names, min_size=n,
                                                                    max_size=n)),
                     max_size=2)
    try:
        rules = DualityRuleSet(data.draw(pairs), data.draw(pairs), data.draw(pairs))
    except RhetorError:
        return
    assert load_rules(serialize_rules(rules)) == rules


@st.composite
def graphs_built_in_code(draw):
    """A graph built in code from drawn fields, or ``None`` when it is
    refused; and its drawn C→R edges, which mostly name registry modes."""
    ids = mostly(["c1", "c-2", "e1", "e2"], ["Obs", "aa--bb", "", "c1"])
    c_ids, e_ids = (draw(st.lists(ids, max_size=3, unique=True)) for _ in "ce")
    targets = mostly(sorted(m.id for m in default_registry())[:6],
                     ["story", "Narration", "narrative"])
    # Each drawn node mostly gets a child first.
    edges_cr = [(c_id, draw(targets)) for c_id in c_ids if draw(mostly([True], [False]))]
    edges_ec = [(e_id, draw(st.sampled_from(c_ids))) for e_id in e_ids
                if c_ids and draw(mostly([True], [False]))]
    nodes = [LayerNode(layer, node_id, draw(DISPLAY_NAMES), draw(DESCRIPTIONS))
             for layer, layer_ids in ((C, c_ids), (E, e_ids)) for node_id in layer_ids]
    profile = draw(mostly(["p", "Custom Profile"], ["", 5]))
    try:
        return PyramidGraph(profile, nodes, edges_cr, edges_ec), edges_cr
    except RhetorError:
        return None, edges_cr


@laws
def test_mapping_raises_or_round_trips(data):
    graph, _ = data.draw(graphs_built_in_code())
    if graph is not None:
        assert load_pyramid(source=serialize_pyramid(graph)) == graph


@laws
def test_r_layer_is_the_registry_modes_the_c_nodes_name(data):
    graph, edges_cr = data.draw(graphs_built_in_code())
    if graph is not None:
        named = map(graph.registry.get, sorted({r_id for _, r_id in edges_cr}))
        assert graph.layer_nodes(R) == tuple(LayerNode(R, m.id, m.display_name, m.description)
                                             for m in named)


@laws
def test_schedule_raises_or_round_trips(data):
    steps, previous_k = [], 0
    for _ in range(data.draw(st.integers(0, 4))):
        name = data.draw(mostly(["a", "Stage 2", "é"], ["", 3]))
        k = previous_k + data.draw(mostly([0, 1, 5, 30], [-1, 0.5, True]))
        duration = data.draw(mostly([1, 2.5, 1e-3, 1e300],
                                    [0, -1.0, math.inf, math.nan, 5e-324, 10**400, False]))
        steps.append(StageStep(name, k, duration))
        previous_k = k
    try:
        schedule = StageSchedule(tuple(steps))
    except RhetorError:
        return
    assert load_schedule(serialize_schedule(schedule)) == schedule


# --- values built in code that would not load back -----------------------------------

@pytest.mark.parametrize("profile, nodes, error, message", [
    ("p", [LayerNode(C, "c", "C")], BadEdge, "c_nodes[0]: C-node 'c' lists no modes"),
    ("", [], ParseError, "mapping profile must be a non-empty string, got ''"),
    ("p", [LayerNode(C, "c", "")], ParseError,
     "c_nodes[0]: node 'c' display name must be a non-empty string, got ''"),
    ("p", [LayerNode(C, "c", 5)], ParseError,
     "c_nodes[0]: node 'c' display name must be a non-empty string, got 5"),
    ("p", [LayerNode(C, "c", "C", 7)], ParseError,
     "c_nodes[0]: node 'c' description must be a string, got 7"),
], ids=["childless", "empty-profile", "empty-display-name", "int-display-name",
        "int-description"])
def test_graph_that_would_not_load_back_is_refused(profile, nodes, error, message):
    with pytest.raises(error) as caught:
        PyramidGraph(profile, nodes, [], [])
    assert str(caught.value) == message


@pytest.mark.parametrize("mode, message", [
    (Mode("story", ""), "modes[28]: mode 'story' display name must be a non-empty string, got ''"),
    (Mode("story", 5), "modes[28]: mode 'story' display name must be a non-empty string, got 5"),
    (Mode("story", "S", description=7),
     "modes[28]: mode 'story' description must be a string, got 7"),
], ids=["empty-display-name", "int-display-name", "int-description"])
def test_registry_mode_that_would_not_load_back_is_refused(mode, message):
    with pytest.raises(ParseError) as caught:
        Registry([*default_registry(), mode], aliases=DEFAULT_ALIASES)
    assert str(caught.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Segment("1", "A", frozenset({"narration"})),
     "segment index must be an int, got '1'"),
    (lambda: AnnotatedDocument("d", (Segment(1, "A", frozenset({"narration"})),), "3"),
     "declared_K must be a positive integer, got '3'"),
    (lambda: AnnotatedDocument("d", (Segment(1, "A", frozenset({"Narration"})),)),
     "segment 1 modes 'Narration' holds 'Narration', which is not a canonical mode id"),
], ids=["str-index", "str-declared_K", "upper-case-mode"])
def test_document_that_would_not_parse_back_is_refused(build, message):
    with pytest.raises(ParseError) as caught:
        build()
    assert str(caught.value) == message

