"""The indexed graph, document and closure code against the plain scans it replaced.

Each oracle below is the earlier implementation, kept here only: a full
edge scan per child query, one segment scan per stage, a closure that
retries every combination at every depth, and parsing and mapping loads
that resolve every name occurrence on its own.  The properties assert that
the indexed and memoized code returns exactly what the scans return.
"""
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    AnnotatedDocument,
    DualityRuleSet,
    LayerNode,
    Mode,
    NoDual,
    NotAtomic,
    NotDiatomic,
    ParseError,
    PyramidGraph,
    Registry,
    RhetorError,
    Segment,
    SelfUnite,
    StageMapping,
    UnknownMode,
    UnmappedStage,
    academic_function_examples,
    base_atoms,
    branching_stats,
    canon,
    closure,
    compose_academic,
    compose_re,
    default_registry,
    default_rules,
    expand,
    forward_backward,
    load_pyramid,
    load_registry,
    load_rules,
    orthogonal,
    parse_document,
    reduce,
    serialize_registry,
    serialize_rules,
    split,
    trace_layers,
    unite,
)
from rhetor import operators, pyramid
from rhetor.documents import LayerTrace, StageTrace
from rhetor.operators import OPERATOR_KINDS, operator_kind
from rhetor.pyramid import BUILTIN_PROFILES, C, E, R, BranchingStats
from rhetor.registry import _title

# --- oracles: the scans -------------------------------------------------------


# The graph scans take the edges the graph was built from as ``edges``, a
# ``(C→R edges, E→C edges)`` pair of sets, never the graph's own edge views:
# those are built from the very tables the scans check.

def children_scan(graph, edges, layer, name):
    edges_cr, edges_ec = edges
    node = graph.node(layer, name)
    if node.layer == C:
        ids = sorted(r for c, r in edges_cr if c == node.id)
        return tuple(graph.node(R, r) for r in ids)
    ids = sorted(c for e, c in edges_ec if e == node.id)
    return tuple(graph.node(C, c) for c in ids)


def compose_re_scan(graph, edges, e_name):
    reached = set()
    for c_node in children_scan(graph, edges, E, e_name):
        reached.update(r.id for r in children_scan(graph, edges, C, c_node.id))
    return tuple(sorted(reached))


def to_document_scan(graph, edges):
    edges_cr, edges_ec = edges
    c_nodes = [{"id": n.id, "display_name": n.display_name, "description": n.description,
                "modes": sorted(r for c, r in edges_cr if c == n.id)}
               for n in graph.layer_nodes(C)]
    e_nodes = [{"id": n.id, "display_name": n.display_name, "description": n.description,
                "cognitive": sorted(c for e, c in edges_ec if e == n.id)}
               for n in graph.layer_nodes(E)]
    return {"profile": graph.profile, "c_nodes": c_nodes, "e_nodes": e_nodes}


def branching_stats_scan(graph, edges):
    edges_cr, edges_ec = edges
    c_counts = {node.id: 0 for node in graph.layer_nodes(C)}
    for c_id, _ in edges_cr:
        c_counts[c_id] += 1
    e_counts = {node.id: 0 for node in graph.layer_nodes(E)}
    for e_id, _ in edges_ec:
        e_counts[e_id] += 1
    return BranchingStats(c_degrees=tuple(sorted(c_counts.items())),
                          e_degrees=tuple(sorted(e_counts.items())))


def stages_scan(doc):
    seen = []
    for seg in doc.segments:
        if seg.stage not in seen:
            seen.append(seg.stage)
    return tuple(seen)


def stage_modes_scan(doc, stage):
    out = set()
    for seg in doc.segments:
        if seg.stage == stage:
            out.update(seg.modes)
    return frozenset(out)


def trace_layers_scan(doc, graph, edges, stage_map):
    by_stage = {m.stage: m for m in stage_map}
    traces, e_ids = [], []
    for stage in stages_scan(doc):
        mapping = by_stage.get(stage)
        if mapping is None:
            raise UnmappedStage(f"stage {stage!r} has no entry in the stage map")
        e_node = graph.node(E, mapping.e_id)
        expected, c_resolved = set(), []
        for c_name in mapping.c_ids:
            c_node = graph.node(C, c_name)
            c_resolved.append(c_node.id)
            expected.update(r.id for r in children_scan(graph, edges, C, c_node.id))
        observed = stage_modes_scan(doc, stage)
        traces.append(StageTrace(stage, tuple(c_resolved), e_node.id, observed,
                                 frozenset(expected), observed & expected,
                                 observed - expected))
        if e_node.id not in e_ids:
            e_ids.append(e_node.id)
    return LayerTrace(doc.id, tuple(traces), tuple(e_ids))


# The errors the naive closure treats as "operator does not apply here".
SKIPPABLE = (NotDiatomic, NotAtomic, SelfUnite, NoDual)
UNARY = {"forward_backward": forward_backward, "expand": expand,
         "reduce": reduce, "orthogonal": orthogonal}


def partner_scan(rules, kind, mode_id):
    """The partner the unary operator ``kind`` gives ``mode_id``, by a scan of
    the pairs; ``None`` when the rules pair it with nothing."""
    if kind == "reduce":
        return next((r for e, r in rules.scale_pairs if e == mode_id), None)
    if kind == "expand":
        return next((e for e, r in rules.scale_pairs if r == mode_id), None)
    pairs = rules.reversal_pairs if kind == "forward_backward" else rules.orthogonal_pairs
    return next((b if a == mode_id else a for a, b in pairs if mode_id in (a, b)), None)


def closure_naive(registry, rules, ops, max_depth, seed=None):
    kinds = sorted({operator_kind(op) for op in ops}, key=OPERATOR_KINDS.index)
    if seed is None:
        universe = {m.id: m for m in registry}
    else:
        universe = {}
        for entry in seed:
            mode = entry if isinstance(entry, Mode) else registry.resolve(entry)
            universe[mode.id] = mode
    made, out = {}, []  # every result so far, the mode its operator gave, by id
    for depth in range(1, max_depth + 1):
        snapshot = sorted(universe.values(), key=lambda m: m.id)
        atoms = [m for m in snapshot if m.is_atomic]
        batch = []

        def attempt(operator, inputs, apply):
            try:
                results = apply()
            except SKIPPABLE:
                return
            if not isinstance(results, tuple):
                results = (results,)
            novel = tuple(r for r in results if r.id not in made)
            if not novel:
                return
            made.update((r.id, r) for r in novel)
            batch.append(operators.Derivation(
                operator, tuple(m.id for m in inputs), tuple(r.id for r in novel), depth,
                tuple(r for r in novel if r.id in registry)))

        for kind in kinds:
            if kind == "split":
                for mode in snapshot:
                    if mode.is_diatomic:
                        attempt(kind, (mode,), lambda m=mode: split(registry, m))
            elif kind == "unite":
                for a, b in combinations(atoms, 2):
                    attempt(kind, (a, b), lambda x=a, y=b: unite(registry, x, y))
            else:
                for mode in atoms:
                    attempt(kind, (mode,),
                            lambda m=mode, f=UNARY[kind]: f(registry, rules, m))
        if not batch:
            break
        batch.sort(key=lambda d: d.result_ids)
        out.extend(batch)
        for derivation in batch:
            for rid in derivation.result_ids:
                universe.setdefault(rid, made[rid])
    return tuple(out)


def parse_per_tag(segments, seg_lines, registry):
    """The document ``rendered_documents`` wrote, every tag sent through ``registry.resolve``."""
    out = []
    for (stage, names, index, _, text), line in zip(segments, seg_lines):
        modes = set()
        for name in names:
            try:
                modes.add(registry.resolve(name).id)
            except UnknownMode as exc:
                raise UnknownMode(f"no mode named {name!r}", suggestions=exc.suggestions,
                                  line=line) from None
        out.append(Segment(index, stage, frozenset(modes), text))
    return AnnotatedDocument("random", tuple(out))


def load_pyramid_per_occurrence(doc, registry):
    """The graph of a mapping document with each R-name occurrence resolved on its own."""
    profile = doc["profile"]
    extras, nodes, edges_cr, edges_ec = {}, [], set(), set()
    for i, c_node in enumerate(doc["c_nodes"]):
        c_id = canon(c_node["id"])
        nodes.append(LayerNode(C, c_id, c_node.get("display_name") or _title(c_id),
                               c_node.get("description", "")))
        for j, name in enumerate(c_node["modes"]):
            r_id = pyramid._resolve_target(registry, name, profile, extras)
            if r_id is None:
                raise ParseError(f"c_nodes[{i}].modes[{j}]: invalid mode name {name!r} "
                                 f"in {profile!r} mapping")
            edges_cr.add((c_id, r_id))
    for e_node in doc["e_nodes"]:
        e_id = canon(e_node["id"])
        nodes.append(LayerNode(E, e_id, e_node.get("display_name") or _title(e_id),
                               e_node.get("description", "")))
        edges_ec.update((e_id, canon(c)) for c in e_node["cognitive"])
    full = registry.with_modes(extras.values()) if extras else registry
    return PyramidGraph(profile, nodes, edges_cr, edges_ec, registry=full)


def outcome(fn, *args):
    """A call's value, or the class, text, line and hints of the domain error it raised."""
    try:
        return fn(*args)
    except RhetorError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "suggestions", None))


# --- random graphs and documents -----------------------------------------------

# Ids whose string order differs from their numeric order ("c10" < "c2"),
# and hyphenated ids, which sort before the plain ones ("c-1" < "c1").
R_IDS = ["r1", "r2", "r10", "r-1", "r-2-b", "r9", "r11", "rb"]
C_IDS = ["c1", "c2", "c10", "c-1", "c-10-b", "cb"]
E_IDS = ["e1", "e2", "e10", "e-a-b"]
# Names no graph drawn below has in its E-layer: ids of the other layers, a
# near miss, and names that canonicalize to nothing.
E_MISSES = ["c1", "r10", "e3", "e1-0", "?!", ""]
# Each built-in profile's (C rows, E rows), read from its mapping document:
# (id, targets).
BUILTIN_ROWS = {profile: ([(node["id"], node["modes"]) for node in doc["c_nodes"]],
                          [(node["id"], node["cognitive"]) for node in doc["e_nodes"]])
                for profile, doc in pyramid._PROFILES.items()}
# The registry the random graphs draw their R-layer from.
R_REGISTRY = Registry([Mode(r_id, r_id.upper()) for r_id in R_IDS])


@st.composite
def graphs(draw):
    """A graph, and the sets of C→R and E→C edges drawn for it; the graph is
    built from the drawn lists, which may repeat an edge, over ``R_REGISTRY``.
    Each C- and E-node gets a child first, as a graph refuses a node without
    one."""
    r_ids = draw(st.lists(st.sampled_from(R_IDS), min_size=1, unique=True))
    c_ids = draw(st.lists(st.sampled_from(C_IDS), min_size=1, unique=True))
    e_ids = draw(st.lists(st.sampled_from(E_IDS), min_size=1, unique=True))
    edges_cr = [(c_id, draw(st.sampled_from(r_ids))) for c_id in c_ids]
    edges_cr += draw(st.lists(st.tuples(st.sampled_from(c_ids), st.sampled_from(r_ids))))
    edges_ec = [(e_id, draw(st.sampled_from(c_ids))) for e_id in e_ids]
    edges_ec += draw(st.lists(st.tuples(st.sampled_from(e_ids), st.sampled_from(c_ids))))
    nodes = [LayerNode(layer, node_id, node_id.upper())
             for layer, ids in ((C, c_ids), (E, e_ids)) for node_id in ids]
    return (PyramidGraph("random", draw(st.permutations(nodes)), edges_cr, edges_ec,
                         R_REGISTRY),
            set(edges_cr), set(edges_ec))


@st.composite
def loose(draw, name):
    """``name`` as a user may type it: either case, spaces for hyphens, padded."""
    text = name.replace("-", draw(st.sampled_from(["-", " "])))
    text = draw(st.sampled_from([str.lower, str.upper]))(text)
    pad = st.sampled_from(["", " ", "  "])
    return draw(pad) + text + draw(pad)


@st.composite
def documents(draw, r_ids):
    stages = draw(st.lists(st.sampled_from(["S1", "S2", "S3", "S4"]), min_size=1,
                           max_size=30))
    segments = tuple(
        Segment(index, stage, frozenset(draw(st.sets(st.sampled_from(r_ids), min_size=1))))
        for index, stage in enumerate(stages, start=1))
    return AnnotatedDocument("random", segments)


class TestGraphAgainstScans:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_query_matches_the_edge_scan(self, data):
        graph, drawn_cr, drawn_ec = data.draw(graphs())
        edges = (drawn_cr, drawn_ec)
        for node in graph.layer_nodes(C) + graph.layer_nodes(E):
            for name in (node.id, data.draw(loose(node.id))):
                assert graph.children(node.layer, name) == children_scan(
                    graph, edges, node.layer, name)
            assert_children_stored(graph, node)
        for name in E_IDS + E_MISSES:
            for spelling in (name, data.draw(loose(name))):
                assert (outcome(compose_re, graph, spelling)
                        == outcome(compose_re_scan, graph, edges, spelling))
        assert graph.to_document() == to_document_scan(graph, edges)
        assert branching_stats(graph) == branching_stats_scan(graph, edges)
        assert graph.edges_cr == drawn_cr
        assert graph.edges_ec == drawn_ec


    @pytest.mark.parametrize("profile", BUILTIN_PROFILES)
    def test_builtin_children_are_stored(self, profile):
        graph = load_pyramid(profile)
        c_rows, e_rows = BUILTIN_ROWS[profile]
        edges = ({(c_id, graph.registry.resolve(name).id) for c_id, names in c_rows
                  for name in names},
                 {(e_id, c_id) for e_id, c_ids in e_rows for c_id in c_ids})
        for node in graph.layer_nodes(C) + graph.layer_nodes(E):
            assert graph.children(node.layer, node.id) == children_scan(
                graph, edges, node.layer, node.id)
            assert_children_stored(graph, node)


def assert_children_stored(graph, node):
    """``children`` returns one stored tuple of the graph's own nodes."""
    kids = graph.children(node.layer, node.id)
    assert graph.children(node.layer, node.id) is kids
    lower = R if node.layer == C else C
    for child in kids:
        assert graph.node(lower, child.id) is child


class TestDocumentsAgainstScans:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_trace_matches_the_per_stage_scan(self, data):
        graph, drawn_cr, drawn_ec = data.draw(graphs())
        r_ids = [n.id for n in graph.layer_nodes(R)]
        c_ids = [n.id for n in graph.layer_nodes(C)]
        e_ids = [n.id for n in graph.layer_nodes(E)]
        doc = data.draw(documents(r_ids))
        mapped = data.draw(st.lists(st.sampled_from(["S1", "S2", "S3", "S4", "S5"]),
                                    unique=True))
        stage_map = [StageMapping(stage,
                                  tuple(data.draw(st.lists(st.sampled_from(c_ids),
                                                           min_size=1))),
                                  data.draw(st.sampled_from(e_ids)))
                     for stage in mapped]
        assert doc.stages() == stages_scan(doc)
        for stage in doc.stages():
            assert doc.stage_modes(stage) == stage_modes_scan(doc, stage)
        assert (outcome(trace_layers, doc, graph, stage_map)
                == outcome(trace_layers_scan, doc, graph, (drawn_cr, drawn_ec), stage_map))


# --- names resolved once per spelling ----------------------------------------------

# Registered ids and alias keys that share words, as "cause", "cause-effect"
# and the alias "cause-and-effect" do: a memo with a loose key mixes them up.
KNOWN = ["analysis", "analysis-synthesis", "cause", "cause-and-effect", "cause-effect",
         "effect", "evidence", "exemplification-illustration", "illustration",
         "narration", "narrative", "process", "process-analysis"]
# Two spellings of one unknown name and a typo that gets hints; a name with
# no letters or digits, which no mapping may mint.
UNKNOWN = ["zorbl-quux", "Zorbl Quux", "narraton"]
INVALID = ["?!"]
SEPARATORS = ["-", " ", "–", "—", "/", "--", " - "]
CASES = [str.lower, str.upper, str.title]


@st.composite
def spellings(draw, names):
    words = draw(st.sampled_from(names)).split("-")
    return draw(st.sampled_from(CASES))(draw(st.sampled_from(SEPARATORS)).join(words))


# Layouts a segment line may take: padding around "|" and "," (a tab may not
# follow a bare "seg", that line is unrecognized), empty comma slots, and
# texts that hold "|".
HEAD_PADS = ["", " ", "  "]
PADS = ["", " ", "  ", "\t"]
EMPTY_SLOTS = ["", " ", "\t"]
TEXTS = ["", "plain words", "a|b", "| opens with a bar", "x | y |"]


@st.composite
def tagged_segments(draw):
    """Segments drawn from a small pool of spellings, so spellings repeat.

    Each is ``(stage, names, index, pinned, text)``: ``pinned`` segments
    write their index, the others take the next one.
    """
    pool = draw(st.lists(spellings(KNOWN), min_size=2, max_size=8))
    if draw(st.integers(0, 3)) == 0:  # an unknown name ends the parse: keep it rarer
        pool += draw(st.lists(spellings(UNKNOWN), min_size=1, max_size=2))
    stages = draw(st.lists(st.sampled_from(["S1", "S2", "S3"]), min_size=1, max_size=30))
    segments, index = [], 0
    for stage in stages:
        jump = draw(st.sampled_from([1, 1, 1, 2, 7]))
        index += jump
        segments.append((stage, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)),
                         index, jump != 1 or draw(st.booleans()), draw(st.sampled_from(TEXTS))))
    return segments


@st.composite
def rendered_documents(draw):
    """Annotation text for drawn segments, the segments, and the line of each ``seg``."""
    segments = draw(tagged_segments())

    def pad():
        return draw(st.sampled_from(PADS))

    lines, seg_lines, current = ["doc random"], [], None
    for stage, names, index, pinned, text in segments:
        if stage != current:
            lines.append(f"stage {stage}")
            current = stage
        slots = []
        for name in names:
            slots += draw(st.lists(st.sampled_from(EMPTY_SLOTS), max_size=1)) + [name]
        slots += draw(st.lists(st.sampled_from(EMPTY_SLOTS), max_size=1))
        head = f"seg {pad()}{index}{pad()}" if pinned else "seg" + draw(st.sampled_from(HEAD_PADS))
        line = head + "|" + ",".join(pad() + slot + pad() for slot in slots)
        if text:
            line += f"{pad()}|{pad()}{text}{pad()}"
        lines.append(line)
        seg_lines.append(len(lines))
    return "\n".join(lines) + "\n", segments, seg_lines


@st.composite
def mapping_documents(draw):
    pool = (draw(st.lists(spellings(KNOWN), min_size=2, max_size=8))
            + draw(st.lists(spellings(UNKNOWN), max_size=3)))
    if draw(st.integers(0, 7)) == 0:  # a name that cannot be minted fails the load
        pool += INVALID
    c_ids = draw(st.lists(st.sampled_from(C_IDS), min_size=1, unique=True))
    c_nodes = [{"id": c_id, "modes": draw(st.lists(st.sampled_from(pool), min_size=1,
                                                   max_size=5))}
               for c_id in c_ids]
    e_nodes = [{"id": e_id, "cognitive": draw(st.lists(st.sampled_from(c_ids), min_size=1))}
               for e_id in draw(st.lists(st.sampled_from(E_IDS), min_size=1, unique=True))]
    return {"profile": "random", "c_nodes": c_nodes, "e_nodes": e_nodes}


class TestNamesResolvedOncePerSpelling:
    @given(rendered_documents())
    @settings(max_examples=150, deadline=None)
    def test_parse_matches_resolving_every_tag(self, document):
        registry = default_registry()
        text, segments, seg_lines = document
        assert (outcome(parse_document, text, registry)
                == outcome(parse_per_tag, segments, seg_lines, registry))

    @given(mapping_documents())
    @settings(max_examples=150, deadline=None)
    def test_mapping_matches_resolving_every_occurrence(self, doc):
        registry = default_registry()
        memoized = outcome(load_pyramid, "default", doc, registry)
        reference = outcome(load_pyramid_per_occurrence, doc, registry)
        assert memoized == reference
        if isinstance(memoized, PyramidGraph):
            assert memoized.registry == reference.registry

    def test_two_spellings_of_an_unknown_name_mint_one_atom(self):
        doc = {"profile": "random",
               "c_nodes": [{"id": "c0", "modes": ["Zorbl Quux", "narration"]},
                           {"id": "c1", "modes": ["zorbl–quux", "Zorbl Quux"]}],
               "e_nodes": [{"id": "e0", "cognitive": ["c0", "c1"]}]}
        graph = load_pyramid(source=doc)
        minted = [m for m in graph.registry if m.id not in default_registry()]
        assert [m.id for m in minted] == ["zorbl-quux"]
        assert graph.edges_cr == {("c0", "zorbl-quux"), ("c0", "narration"),
                                  ("c1", "zorbl-quux")}


# --- closure over clashing ids ---------------------------------------------------

ONE_WORD = ["ka", "lo", "mi", "nu"]
TWO_WORD = ["ka-lo", "lo-mi", "mi-nu", "nu-ka"]
# Two-word atoms that read like two one-word ids joined by a hyphen, so a
# one-hyphen join would clash: unite(ka, lo) must not take the atom ka-lo's
# id, and unite(ka, lo-mi) and unite(ka-lo, mi) must differ.  The "--" join
# gives them ka--lo, ka--lo-mi and ka-lo--mi.
CLASH_REGISTRY = Registry(
    [Mode(i, i.title()) for i in ONE_WORD + TWO_WORD]
    + [Mode("ka-mi-pair", "Ka-Mi Pair", ("ka", "mi")),
       Mode("lo-nu-pair", "Lo-Nu Pair", ("lo", "nu"))])
# Rule partners may lie outside the registry; those come back as generated atoms.
RULE_NAMES = ONE_WORD + TWO_WORD + ["zo", "zo-ka", "pe"]


def pairs_of(names):
    return [names[i:i + 2] for i in range(0, len(names) - 1, 2)]


@st.composite
def rule_sets(draw):
    relations = [pairs_of(draw(st.lists(st.sampled_from(RULE_NAMES), unique=True,
                                        max_size=8)))
                 for _ in range(3)]
    return DualityRuleSet(*relations)


class TestRuleSetLaws:
    """Operator laws over arbitrary rule sets, partners outside the registry included."""

    @given(rule_sets())
    @settings(max_examples=150, deadline=None)
    def test_reversal_and_orthogonal_are_involutions(self, rules):
        for operator, pairs in ((forward_backward, rules.reversal_pairs),
                                (orthogonal, rules.orthogonal_pairs)):
            for mode_id in {m for pair in pairs for m in pair}:
                there = operator(CLASH_REGISTRY, rules, mode_id)
                assert operator(CLASH_REGISTRY, rules, there).id == mode_id

    @given(rule_sets())
    @settings(max_examples=150, deadline=None)
    def test_expand_undoes_reduce(self, rules):
        for expanded, reduced in rules.scale_pairs:
            reduced_mode = reduce(CLASH_REGISTRY, rules, expanded)
            assert reduced_mode.id == reduced
            assert expand(CLASH_REGISTRY, rules, reduced_mode).id == expanded

    @given(rule_sets())
    @settings(max_examples=150, deadline=None)
    def test_serialized_rules_load_back(self, rules):
        assert load_rules(serialize_rules(rules)) == rules

    @given(rule_sets())
    @settings(max_examples=150, deadline=None)
    def test_partner_agrees_with_the_public_operator(self, rules):
        for mode_id in rules.members():
            for kind, operator in UNARY.items():
                partner_id = partner_scan(rules, kind, mode_id)
                if partner_id is None:
                    with pytest.raises(NoDual):
                        operator(CLASH_REGISTRY, rules, mode_id)
                else:
                    assert operator(CLASH_REGISTRY, rules, mode_id).id == partner_id


# CLASH_REGISTRY with an alias per mode, so that a seed can name a mode by
# its id, a loose spelling, an alias or the Mode itself.
CLASH_ALIASED = Registry(CLASH_REGISTRY, aliases={f"alias-{m.id}": m.id
                                                  for m in CLASH_REGISTRY})


def ways_to_write(mode_id):
    return [mode_id, mode_id.upper().replace("-", " "), f"Alias {mode_id}",
            CLASH_ALIASED.get(mode_id)]


# Rule members that may name a mode of CLASH_ALIASED through its alias, at
# most one spelling per mode and relation, so every drawn rule set holds.
ALIASED_RULE_NAMES = RULE_NAMES + [f"alias-{i}" for i in ONE_WORD + TWO_WORD]


@st.composite
def aliased_rule_sets(draw):
    relations = [pairs_of(draw(st.lists(st.sampled_from(ALIASED_RULE_NAMES), max_size=8,
                                        unique_by=lambda n: n.removeprefix("alias-"))))
                 for _ in range(3)]
    return DualityRuleSet(*relations)


@given(aliased_rule_sets())
@settings(max_examples=150, deadline=None)
def test_rules_that_name_aliases_act_on_the_mode(rules):
    """Each unary operator gives one result for every spelling of its input,
    and each result registers."""
    for mode_id in {name.removeprefix("alias-") for name in rules.members()}:
        spellings = (ways_to_write(mode_id) if mode_id in CLASH_ALIASED
                     else [mode_id, mode_id.upper()])
        for operator in UNARY.values():
            results = {outcome(operator, CLASH_ALIASED, rules, s) for s in spellings}
            assert len(results) == 1, (mode_id, operator.__name__, results)
            result = results.pop()
            if isinstance(result, Mode):
                assert CLASH_ALIASED.with_modes([result]).get(result.id) == result


# Wide enough for batches of over a thousand derivations: 24 one-word atoms,
# 23 two-word atoms built from them, three diatomics (so unite rediscovers
# registered modes; one is over a two-word atom), and rule partners outside
# the registry that add new atoms at depths 1, 2 and 3.
WIDE_WORDS = [c + v for c, v in zip("bcdfghjklmnp" * 2, "aeiou" * 5)]
WIDE_REGISTRY = Registry(
    [Mode(i, i.title()) for i in WIDE_WORDS
     + ["-".join(p) for p in combinations(WIDE_WORDS, 2)][::12]]
    + [Mode("ba-ce-pair", "Ba-Ce Pair", ("ba", "ce")),
       Mode("hi-lo-mu", "Hi-Lo-Mu", ("hi", "lo-mu")),
       Mode("ku-la", "Ku-La", ("ku", "la"))])
WIDE_RULES = DualityRuleSet(
    reversal=[("ba", "ce"), ("di", "zo"), ("gu-fa", "ra"), ("ki", "ra-ki"), ("yo", "wu")],
    scale=[("gu", "ve"), ("ha-mu", "ha"), ("tu", "ni")],
    orthogonal=[("je", "xa"), ("lo", "me-ni"), ("ve", "yo")])

# A diatomic stored out of id order, and rule partners outside the registry:
# with seed b-a, c and d, depth 1 splits b-a into two novel atoms while unite
# and forward_backward each record one result, so the batch's order by first
# result id is checked against the oracle's order by whole result-id tuples.
SWAPPED_REGISTRY = Registry([Mode(i, i.upper()) for i in "abcd"]
                            + [Mode("b-a", "B-A", ("b", "a"))])
SWAPPED_RULES = DualityRuleSet(reversal=[("c", "z")], orthogonal=[("a", "y")])

CLOSURE_CASES = dict(
    seed=st.none() | st.sets(st.sampled_from(sorted(m.id for m in CLASH_REGISTRY)),
                             min_size=1),
    rules=rule_sets(),
    ops=st.sets(st.sampled_from(OPERATOR_KINDS), min_size=1),
    depth=st.integers(1, 4))


class TestClosureAgainstNaive:
    @given(**CLOSURE_CASES)
    @settings(max_examples=300, deadline=None)
    def test_derivations_match_tuple_for_tuple(self, seed, rules, ops, depth):
        assert (closure(CLASH_REGISTRY, rules, ops, depth, seed=seed)
                == closure_naive(CLASH_REGISTRY, rules, ops, depth, seed=seed))

    def test_clashing_ids_are_reached(self):
        """Pairs whose one-hyphen joins would clash each reach an id of their own."""
        derivations = closure(CLASH_REGISTRY, DualityRuleSet(), ["unite"], 1)
        inputs = {d.result_ids[0]: d.inputs for d in derivations}
        assert inputs["ka--lo-mi"] == ("ka", "lo-mi")
        assert inputs["ka-lo--mi"] == ("ka-lo", "mi")
        assert inputs["ka--lo"] == ("ka", "lo")  # a new diatomic, not the atom ka-lo
        assert inputs["ka-mi-pair"] == ("ka", "mi")
        assert [d.inputs for d in derivations if d.rediscovery] == [("ka", "mi"), ("lo", "nu")]

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_builtin_registry_matches(self, depth):
        registry, rules = default_registry(), default_rules()
        assert (closure(registry, rules, OPERATOR_KINDS, depth)
                == closure_naive(registry, rules, OPERATOR_KINDS, depth))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_wide_registry_matches(self, depth):
        derivations = closure(WIDE_REGISTRY, WIDE_RULES, OPERATOR_KINDS, depth)
        assert derivations == closure_naive(WIDE_REGISTRY, WIDE_RULES, OPERATOR_KINDS, depth)
        # What the case is for: a batch of over a thousand, two-result split
        # keys, rediscoveries, and a new atom at every depth.
        assert sum(d.depth == 1 for d in derivations) > 1000
        assert any(len(d.results) == 2 for d in derivations)
        assert any(d.rediscovery for d in derivations)
        assert {d.depth for d in derivations if d.results[0].id not in WIDE_REGISTRY
                and d.results[0].is_atomic} == set(range(1, depth + 1))

    def test_split_and_single_results_in_one_depth(self):
        seed = ["b-a", "c", "d"]
        derivations = closure(SWAPPED_REGISTRY, SWAPPED_RULES, OPERATOR_KINDS, 3, seed=seed)
        assert derivations == closure_naive(SWAPPED_REGISTRY, SWAPPED_RULES, OPERATOR_KINDS,
                                            3, seed=seed)
        assert [d.result_ids for d in derivations if d.depth == 1] == [
            ("b", "a"), ("c--d",), ("z",)]
        assert [(d.inputs, d.depth, d.rediscovery) for d in derivations
                if d.result_ids == ("b-a",)] == [(("a", "b"), 2, True)]

    @given(seed=st.none() | st.sets(st.sampled_from(["a", "b", "b-a", "c", "d"]), min_size=1),
           ops=CLOSURE_CASES["ops"], depth=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_diatomic_stored_out_of_id_order(self, seed, ops, depth):
        assert (closure(SWAPPED_REGISTRY, SWAPPED_RULES, ops, depth, seed=seed)
                == closure_naive(SWAPPED_REGISTRY, SWAPPED_RULES, ops, depth, seed=seed))

    @given(data=st.data(), **CLOSURE_CASES)
    @settings(max_examples=150, deadline=None)
    def test_output_ignores_how_the_seed_is_written(self, data, seed, rules, ops, depth):
        ids = sorted(seed or (m.id for m in CLASH_REGISTRY))
        expected = closure(CLASH_ALIASED, rules, ops, depth, seed=seed)
        entries = ids + data.draw(st.lists(st.sampled_from(ids), max_size=4))  # repeats
        written = [data.draw(st.sampled_from(ways_to_write(mode_id))) for mode_id in entries]
        written = data.draw(st.permutations(written))
        assert closure(CLASH_ALIASED, rules, ops, depth, seed=written) == expected


# --- unite ids: one per unordered atom pair (the split-unite duality) -----------

UNITE_REGISTRIES = {"builtin": default_registry(), "clash": CLASH_REGISTRY,
                    "wide": WIDE_REGISTRY}


@pytest.mark.parametrize("name", sorted(UNITE_REGISTRIES))
def test_unite_is_injective_on_atom_pairs(name):
    registry = UNITE_REGISTRIES[name]
    pairs = list(combinations(sorted(m.id for m in registry.atoms()), 2))
    ids = {unite(registry, a, b).id for a, b in pairs}
    assert len(ids) == len(pairs)


@given(data=st.data(), name=st.sampled_from(sorted(UNITE_REGISTRIES)))
@settings(max_examples=100, deadline=None)
def test_uniting_n_atoms_derives_n_choose_2_modes(data, name):
    """closure(..., "unite", 1) over n seed atoms derives C(n, 2) distinct ids."""
    registry = UNITE_REGISTRIES[name]
    seed = data.draw(st.sets(st.sampled_from(sorted(m.id for m in registry.atoms()))))
    derivations = closure(registry, DualityRuleSet(), ["unite"], 1, seed=seed)
    assert len(derivations) == len({d.result_ids for d in derivations}) == comb(len(seed), 2)
    assert {frozenset(d.inputs) for d in derivations} == {
        frozenset(pair) for pair in combinations(seed, 2)}


@given(**CLOSURE_CASES)
@settings(max_examples=200, deadline=None)
def test_every_derivation_replays_through_the_public_operator(seed, rules, ops, depth):
    """closure calls the operator cores; the public operators must give the same modes."""
    derivations = closure(CLASH_REGISTRY, rules, ops, depth, seed=seed)
    universe = {m.id: m for m in (CLASH_REGISTRY if seed is None
                                  else map(CLASH_REGISTRY.resolve, seed))}
    for d in derivations:
        inputs = [universe[i] for i in d.inputs]
        if d.operator == "unite":
            assert unite(CLASH_REGISTRY, *inputs) == d.results[0]
        elif d.operator == "split":
            assert set(d.results) <= set(split(CLASH_REGISTRY, *inputs))
        else:
            assert UNARY[d.operator](CLASH_REGISTRY, rules, *inputs) == d.results[0]
        assert d.result_ids == tuple(r.id for r in d.results)
        assert d.rediscovery == all(r.id in CLASH_REGISTRY for r in d.results)
        for result in d.results:
            universe.setdefault(result.id, result)


def assert_registers_and_loads_back(registry, modes):
    """``modes`` extend ``registry``, and the extended registry loads back equal."""
    extended = registry.with_modes(modes)
    assert load_registry(serialize_registry(extended)) == extended


@given(seed=st.none() | st.sets(st.sampled_from(sorted(m.id for m in default_registry().atoms())),
                                min_size=1),
       ops=st.sets(st.sampled_from(OPERATOR_KINDS), min_size=1), depth=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_generated_modes_register_and_load_back(seed, ops, depth):
    registry = default_registry()
    derivations = closure(registry, default_rules(), ops, depth, seed=seed)
    new = {r.id: r for d in derivations for r in d.results if r.id not in registry}
    assert_registers_and_loads_back(registry, new.values())


@pytest.mark.parametrize("profile", BUILTIN_PROFILES)
def test_minted_atoms_load_back(profile):
    assert_registers_and_loads_back(load_pyramid(profile).registry, ())


@pytest.mark.parametrize("function", academic_function_examples(), ids=lambda f: f.name)
def test_academic_compositions_register_and_load_back(function):
    registry = default_registry()
    assert_registers_and_loads_back(registry, [compose_academic(registry, function)])


def test_depth_two_unites_only_pairs_touching_a_new_atom(monkeypatch):
    registry, rules = default_registry(), default_rules()
    calls = []
    diatomic_for_pair = Registry.diatomic_for_pair

    def counting_lookup(reg, a, b):
        calls.append(frozenset((a, b)))
        return diatomic_for_pair(reg, a, b)

    monkeypatch.setattr(Registry, "diatomic_for_pair", counting_lookup)
    seed = sorted(m.id for m in base_atoms())
    derivations = closure(registry, rules, ["unite", "reduce"], 2, seed=seed)
    new_atoms = {r.id for d in derivations if d.depth == 1
                 for r in d.results if r.is_atomic and r.id not in seed}
    assert new_atoms == {"summary"}  # reduce(exposition)
    first, second = calls[:21], calls[21:]
    assert set(first) == {frozenset(p) for p in combinations(seed, 2)}
    assert set(second) == {frozenset((a, "summary")) for a in seed}
    assert len(second) == 7  # a full second pass would make C(8, 2) = 28
