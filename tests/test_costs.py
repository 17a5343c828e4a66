"""Cost contracts: operation counts that guard the parsing, graph-query and closure speed-ups.

Each bound counts calls by wrapping a function with ``monkeypatch``, so it
holds on any machine and fails when a change brings back the work it saved.
"""
import math
from collections import Counter

import pytest

from rhetor import (
    AnnotatedDocument,
    DualityRuleSet,
    StageSchedule,
    branching_stats,
    closure,
    compose_re,
    cone,
    default_registry,
    default_rules,
    default_schedule,
    load_pyramid,
    load_registry,
    load_stage_map,
    parse_document,
    serialize_document,
    serialize_pyramid,
    trace_layers,
)
from rhetor import documents, operators, pyramid, schedule
from rhetor.cli import main
from rhetor.operators import OPERATOR_KINDS
from rhetor.pyramid import BUILTIN_PROFILES, C, E, PyramidGraph
from rhetor.registry import Mode, Origin, Registry
from test_scan_oracles import CLASH_REGISTRY, UNARY, WIDE_REGISTRY, WIDE_RULES


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is appended to the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def name_occurrences(text):
    """Every mode-name occurrence on the segment lines of well-formed ``.rma`` text."""
    return [name.strip() for line in text.splitlines() if line.strip().startswith("seg")
            for name in line.split("|")[1].split(",") if name.strip()]


# Exact ids, aliases, loose spellings and a name repeated within and across segments.
SPELLINGS = """doc costs
stage A
seg | narration, Narrative, narration | a
seg 4 | cause-and-effect, CAUSE EFFECT, process analysis
stage B
seg|Tale,  tale ,cause–effect,,evidence
seg | illustration
"""


@pytest.mark.parametrize("source", ["lesson", "spellings"])
def test_parse_looks_up_each_name_occurrence_once_and_resolves_none(
        monkeypatch, lesson_path, source):
    registry = load_registry({"aliases": {"tale": "narration"}})
    text = lesson_path.read_text(encoding="utf-8") if source == "lesson" else SPELLINGS
    lookups = counting(monkeypatch, Registry, "_lookup")
    resolves = counting(monkeypatch, Registry, "resolve")
    parse_document(text, registry)
    assert [name for _, name in lookups] == name_occurrences(text)
    assert resolves == []


def test_cone_and_serialize_document_check_nothing_again(monkeypatch, lesson):
    """A schedule and a document check themselves when built, so neither
    ``cone`` nor ``serialize_document`` makes a validation call."""
    steps = default_schedule().stages
    checks = [counting(monkeypatch, StageSchedule, "__post_init__"),
              counting(monkeypatch, schedule, "_rate"),
              counting(monkeypatch, AnnotatedDocument, "__post_init__"),
              counting(monkeypatch, documents, "_written")]
    cone(StageSchedule(steps))
    serialize_document(lesson)
    # _rate runs once per step when the schedule is built and once in cone.
    assert [len(calls) for calls in checks] == [1, 2 * len(steps), 0, 0]


def test_map_edge_listing_reads_no_edge_view(monkeypatch, capsys):
    """``rhetor map`` lists the edges from the child-id tables, as the graph
    document holds them, without building the ``edges_cr``/``edges_ec`` views."""
    views = counting(monkeypatch, pyramid, "_edge_view")
    assert main(["map", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("layer,from,to\nC,abstract,analogy\n")
    assert views == []


@pytest.mark.parametrize("profile", BUILTIN_PROFILES)
def test_child_tables_are_built_only_at_load(monkeypatch, profile, lesson, lesson_map_path):
    """The child tables are the graph's only edge store: neither load nor any
    query builds the ``edges_cr``/``edges_ec`` views, and ``children`` hands
    out the tuple stored at load."""
    views = counting(monkeypatch, pyramid, "_edge_view")
    graph = load_pyramid(profile)
    stored = {(layer, node.id): graph._children[layer][node.id]
              for layer in (C, E) for node in graph.layer_nodes(layer)}
    for (layer, node_id), kids in stored.items():
        assert graph.children(layer, node_id) is kids
    for node in graph.layer_nodes(E):
        compose_re(graph, node.id)
    branching_stats(graph)
    serialize_pyramid(graph)
    if profile == "default":
        trace_layers(lesson, graph, load_stage_map(lesson_map_path))
    assert views == []


@pytest.mark.parametrize("profile", BUILTIN_PROFILES)
def test_builtin_profile_and_document_take_one_walk(monkeypatch, profile):
    """A built-in profile is a mapping document: it loads through the one
    walk its serialized text takes, one ``entries`` call per upper layer and
    one graph construction."""
    text = serialize_pyramid(load_pyramid(profile))
    walks = counting(monkeypatch, pyramid, "entries")
    builds = counting(monkeypatch, PyramidGraph, "__init__")
    for load in (lambda: load_pyramid(profile), lambda: load_pyramid(source=text)):
        walks.clear()
        builds.clear()
        load()
        assert [key for _, key, _ in walks] == ["c_nodes", "e_nodes"]
        assert len(builds) == 1


def test_trace_layers_makes_no_children_call(monkeypatch, graph, lesson, lesson_map_path):
    stage_map = load_stage_map(lesson_map_path)
    children = counting(monkeypatch, PyramidGraph, "children")
    trace = trace_layers(lesson, graph, stage_map)
    assert trace.stages  # the trace did read the graph
    assert children == []


# Registries and rules under which closure runs to depth 3 or 4; on the
# clash and wide ones, rule partners outside the registry add new atoms at
# depths 1, 2 and 3.
CLOSURE_CASES = {
    "builtin": (default_registry(), default_rules()),
    "clash": (CLASH_REGISTRY, DualityRuleSet(reversal=[("ka", "zo")], orthogonal=[("zo", "pe")],
                                             scale=[("pe", "zo-ka")])),
    "wide": (WIDE_REGISTRY, WIDE_RULES),
}


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
def test_closure_tries_each_fresh_combination_once_per_depth(monkeypatch, case):
    """At each depth, ``diatomic_for_pair`` runs at most once per atom pair with
    a member the previous depth added (at depth 1, every mode), and a unary
    derivation is built at most once per such atom and unary operator.  Each
    ``Derivation`` built is one the output records, and ``closure`` makes no
    result mode: ``_generated`` runs only when ``.results`` is read."""
    registry, rules = CLOSURE_CASES[case]
    lookups = counting(monkeypatch, Registry, "diatomic_for_pair")
    builds = counting(monkeypatch, operators.Derivation, "__new__")
    made = counting(monkeypatch, operators, "_generated")
    shallower_lookups, shallower_builds = [], []
    for depth in range(1, 5):
        lookups.clear()
        builds.clear()
        derivations = closure(registry, rules, OPERATOR_KINDS, depth)
        assert made == []
        assert sorted(result_ids for _, _, _, result_ids, *_ in builds) == sorted(
            d.result_ids for d in derivations)
        # The run one depth shallower made the same calls first.
        assert lookups[:len(shallower_lookups)] == shallower_lookups
        assert builds[:len(shallower_builds)] == shallower_builds
        known = {m.id for m in registry} | {rid for d in derivations if d.depth < depth - 1
                                            for rid in d.result_ids}
        fresh = known if depth == 1 else {rid for d in derivations if d.depth == depth - 1
                                          for rid in d.result_ids} - known
        pairs = Counter(frozenset((a, b)) for _, a, b in lookups[len(shallower_lookups):])
        unary = Counter((operator, source) for _, operator, (source, *_), *_
                        in builds[len(shallower_builds):] if operator in UNARY)
        assert all(n == 1 and pair & fresh for pair, n in pairs.items())
        assert all(n == 1 and source in fresh for (_, source), n in unary.items())
        shallower_lookups, shallower_builds = lookups[:], builds[:]
    assert shallower_lookups and any(operator in UNARY for _, operator, *_ in builds)


@pytest.mark.parametrize("n", [2, 12])
def test_depth_one_unite_builds_one_record_per_derivation(monkeypatch, n):
    """A depth-1 ``unite`` closure over ``n`` fresh atoms builds one
    ``Derivation`` per derivation, and no ``Mode`` or ``Origin``: C(n, 2)
    records in all.  Each is counted at its class's generated ``__new__``,
    which a class call and a direct call both run."""
    registry = Registry([Mode(f"m{chr(ord('a') + i)}", f"M{i}") for i in range(n)])
    built = {cls.__name__: counting(monkeypatch, cls, "__new__")
             for cls in (operators.Derivation, Mode, Origin)}
    derivations = closure(registry, DualityRuleSet(), ["unite"], 1)
    assert len(derivations) == math.comb(n, 2)
    assert {name: len(calls) for name, calls in built.items()} == {
        "Derivation": len(derivations), "Mode": 0, "Origin": 0}


def test_each_mode_is_checked_once_per_registry_built(monkeypatch, extension_registry_path):
    """``with_modes`` and ``load_registry`` check each new mode once; the
    modes the registry already held are not checked again."""
    from rhetor import registry as registry_module
    new = [Mode(f"m{i}", f"M{i}") for i in range(5)]
    checked = counting(monkeypatch, registry_module, "_check_mode")
    extended = default_registry().with_modes(new)
    assert [args[0] for args in checked] == new
    checked.clear()
    Registry(list(extended))
    assert len(checked) == len(extended)
    checked.clear()
    loaded = load_registry(extension_registry_path)
    assert len(checked) == len(loaded) - len(default_registry())
