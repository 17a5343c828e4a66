import json

import pytest

from rhetor import (
    ACADEMIC_PROFILE,
    AcademicFunction,
    BadComposition,
    BadEdge,
    LayerNode,
    ParseError,
    PyramidGraph,
    UnknownMode,
    UnknownNode,
    UnknownProfile,
    academic_function_examples,
    branching_stats,
    compose_academic,
    compose_re,
    entropy_layered,
    load_pyramid,
    serialize_pyramid,
)
from rhetor.pyramid import C, E, R


class TestDefaultShape:
    def test_layer_sizes(self, graph):
        r, c, e = (len(graph.layer_nodes(layer)) for layer in (R, C, E))
        assert (r, c, e) == (21, 14, 8)
        assert r >= c > e

    def test_edge_counts(self, graph):
        assert len(graph.edges_cr) == 46
        assert len(graph.edges_ec) == 34

    def test_edges_match_fixture(self, graph, expected_edges):
        fixture_cr = {(c, r) for c, targets in expected_edges["c"].items()
                      for r in targets}
        fixture_ec = {(e, c) for e, targets in expected_edges["e"].items()
                      for c in targets}
        assert graph.edges_cr == fixture_cr
        assert graph.edges_ec == fixture_ec

    def test_r_layer_is_mode_subset(self, graph, registry):
        for node in graph.layer_nodes(R):
            assert registry.get(node.id) is not None

    def test_every_c_node_reached_from_e_layer(self, graph):
        reached = {c for _, c in graph.edges_ec}
        assert reached == {n.id for n in graph.layer_nodes(C)}

    def test_attributes_are_read_only(self):
        graph = load_pyramid()
        for name, value in (("profile", "other"), ("edges_cr", frozenset()),
                            ("edges_ec", frozenset()), ("registry", None)):
            with pytest.raises(AttributeError):
                setattr(graph, name, value)
        assert graph == load_pyramid()
        assert graph.registry.get("narration") is not None


class TestLookup:
    def test_node_by_display_name(self, graph):
        assert graph.node(C, "Test/Validate").id == "test-validate"
        assert graph.node(E, "Teaching/Learning").id == "teaching-learning"

    def test_unknown_node_suggests(self, graph):
        with pytest.raises(UnknownNode) as err:
            graph.node(C, "evaluat")
        assert "evaluate" in str(err.value)

    def test_unknown_node_carries_its_suggestions(self, graph):
        with pytest.raises(UnknownNode) as err:
            graph.node(C, "observ")
        assert err.value.suggestions == ("observe",)
        assert str(err.value) == "no C-layer node named 'observ'; did you mean: observe?"
        with pytest.raises(UnknownNode) as err:
            graph.node(E, "zzz")
        assert err.value.suggestions == ()
        assert str(err.value) == "no E-layer node named 'zzz'"

    def test_repr(self, graph):
        assert repr(graph) == "PyramidGraph('default', R=21, C=14, E=8)"

    def test_never_equal_to_another_type(self, graph):
        assert (graph == graph.to_document()) is False
        assert (graph != "default") is True

    def test_unknown_layer(self, graph):
        with pytest.raises(UnknownNode):
            graph.node("X", "observe")
        with pytest.raises(UnknownNode):
            graph.layer_nodes("Q")

    def test_r_nodes_have_no_children(self, graph):
        with pytest.raises(UnknownNode):
            graph.children(R, "narration")


class TestRealizers:
    def test_c_node(self, graph):
        ids = [n.id for n in graph.children(C, "observe")]
        assert ids == ["description", "evidence", "exemplification", "narration"]

    def test_alias_collapse_in_targets(self, graph):
        ids = [n.id for n in graph.children(C, "test-validate")]
        assert ids == ["evaluation", "evidence"]

    def test_e_node(self, graph):
        ids = [n.id for n in graph.children(E, "knowledge-formation")]
        assert ids == ["abstract", "classify", "identify", "observe"]

    def test_unknown(self, graph):
        with pytest.raises(UnknownNode):
            graph.children(C, "no-such-function")


class TestComposeRE:
    def test_knowledge_formation(self, graph):
        assert compose_re(graph, "knowledge-formation") == (
            "analogy", "classification", "contrast", "definition", "description",
            "division", "evidence", "exemplification", "exposition", "narration")

    def test_evaluation_decision_making(self, graph):
        assert len(compose_re(graph, "evaluation-decision-making")) == 9

    def test_matches_union_oracle_for_every_e_node(self, graph, expected_edges):
        for e_id, c_ids in expected_edges["e"].items():
            expected = sorted({r for c in c_ids for r in expected_edges["c"][c]})
            assert list(compose_re(graph, e_id)) == expected

    def test_unknown_e_node(self, graph):
        with pytest.raises(UnknownNode):
            compose_re(graph, "no-such-purpose")


class TestBranchingStats:
    def test_c_degrees(self, graph):
        stats = branching_stats(graph)
        degrees = dict(stats.c_degrees)
        assert degrees["observe"] == 4
        assert degrees["reflect"] == 5
        assert degrees["test-validate"] == 2
        assert stats.max_degree(C) == 5
        assert stats.mean_degree(C) == pytest.approx(46 / 14, rel=1e-12)

    def test_e_degrees(self, graph):
        stats = branching_stats(graph)
        degrees = dict(stats.e_degrees)
        assert degrees["teaching-learning"] == 6
        assert stats.max_degree(E) == 6
        assert sum(degrees.values()) == 34

    def test_feeds_layered_entropy(self, graph):
        stats = branching_stats(graph)
        report = entropy_layered(stats.c_degrees, flat_k=21)
        assert len(report.stage_entropies) == 14
        assert report.max_stage_H < report.flat_H

    def test_unknown_layer(self, graph):
        with pytest.raises(UnknownNode):
            branching_stats(graph).max_degree(R)


class TestRoundTrip:
    def test_default(self, graph):
        assert load_pyramid(source=serialize_pyramid(graph)) == graph

    def test_academic(self):
        graph = load_pyramid(ACADEMIC_PROFILE)
        assert load_pyramid(source=serialize_pyramid(graph)) == graph

    def test_document_order_does_not_matter(self, graph):
        doc = graph.to_document()
        doc["c_nodes"] = list(reversed(doc["c_nodes"]))
        doc["e_nodes"] = list(reversed(doc["e_nodes"]))
        assert load_pyramid(source=doc) == graph

    def test_serialization_is_stable(self, graph):
        assert serialize_pyramid(graph) == serialize_pyramid(load_pyramid())


class TestAcademicProfile:
    def test_shape(self):
        graph = load_pyramid(ACADEMIC_PROFILE)
        assert len(graph.layer_nodes(C)) == 7
        assert len(graph.layer_nodes(E)) == 7
        assert len(graph.edges_ec) == 7

    def test_one_to_one_purposes(self):
        graph = load_pyramid(ACADEMIC_PROFILE)
        stats = branching_stats(graph)
        assert all(d == 1 for _, d in stats.e_degrees)

    def test_writing_moves_auto_registered(self):
        graph = load_pyramid(ACADEMIC_PROFILE)
        for move in ("grading", "clarification", "questioning", "claim-making"):
            mode = graph.registry.resolve(move)
            assert mode.origin.kind == "generated"
            assert mode.origin.operator == "academic-profile"
            assert mode.is_atomic

    def test_builtin_modes_not_duplicated(self, registry):
        graph = load_pyramid(ACADEMIC_PROFILE)
        assert graph.registry.resolve("narration") is registry.resolve("narration")

    def test_presentation_function(self):
        graph = load_pyramid(ACADEMIC_PROFILE)
        ids = [n.id for n in graph.children(C, "information-presentation")]
        assert len(ids) == 8
        assert "narration" in ids and "grading" in ids

    def test_purpose_chain(self):
        graph = load_pyramid(ACADEMIC_PROFILE)
        assert compose_re(graph, "revealing-operational-logic") == (
            "procedural-description", "process-analysis")


class TestLoading:
    def test_unknown_profile(self):
        with pytest.raises(UnknownProfile):
            load_pyramid("no-such-profile")

    def test_document_passed_as_profile_is_refused_briefly(self):
        doc = {"profile": "big", "e_nodes": [],
               "c_nodes": [{"id": f"c{i}", "modes": ["narration"]} for i in range(2000)]}
        with pytest.raises(UnknownProfile) as caught:
            load_pyramid(doc)
        assert str(caught.value) == "profile must be a str, got dict"
        assert len(str(caught.value)) < 100

    def test_profile_beside_a_document_is_refused(self):
        doc = {"profile": "mine", "c_nodes": [{"id": "c", "modes": ["narration"]}]}
        with pytest.raises(UnknownProfile) as caught:
            load_pyramid(ACADEMIC_PROFILE, source=doc)
        assert str(caught.value) == ("profile 'academic-writing' cannot be given with a "
                                     "mapping document, which names its own profile")
        assert load_pyramid(source=doc).profile == "mine"

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_pyramid(source="{oops")

    def test_non_object_document(self):
        with pytest.raises(ParseError):
            load_pyramid(source="[1, 2]")

    @pytest.mark.parametrize("entry", [
        {"id": "observe", "display_name": ["Observe"], "modes": ["narration"]},
        {"id": ["observe"], "modes": ["narration"]},
    ], ids=["display_name", "id"])
    def test_non_string_field_rejected(self, entry):
        with pytest.raises(ParseError):
            load_pyramid(source={"c_nodes": [entry]})

    def test_unknown_c_reference(self):
        with pytest.raises(BadEdge):
            load_pyramid(source={
                "profile": "p",
                "c_nodes": [{"id": "a", "modes": ["narration"]}],
                "e_nodes": [{"id": "x", "cognitive": ["missing"]}],
            })

    def test_empty_targets_rejected(self):
        with pytest.raises(BadEdge):
            load_pyramid(source={
                "profile": "p",
                "c_nodes": [{"id": "a", "modes": []}],
                "e_nodes": [],
            })

    def test_duplicate_node_rejected(self):
        with pytest.raises(ParseError):
            load_pyramid(source={
                "profile": "p",
                "c_nodes": [{"id": "a", "modes": ["narration"]},
                            {"id": "a", "modes": ["description"]}],
                "e_nodes": [],
            })

    def test_custom_document_auto_registers(self, registry):
        graph = load_pyramid(source={
            "profile": "mini",
            "c_nodes": [{"id": "frame", "modes": ["narration", "scene-setting"]}],
            "e_nodes": [{"id": "orient", "cognitive": ["frame"]}],
        })
        assert graph.profile == "mini"
        assert graph.registry.resolve("scene-setting").origin.operator == \
            "academic-profile"
        assert registry.get("scene-setting") is None

    def test_direct_construction_validates_edges(self):
        with pytest.raises(BadEdge):
            PyramidGraph("p", [], [("c", "r")], [])

    @pytest.mark.parametrize("node, message", [
        (LayerNode(C, "Obs", "O"), "c_nodes[0]: node 'Obs' in layer C is not a canonical id"),
        (LayerNode(C, 7, "O"), "c_nodes[0]: node 7 in layer C is not a canonical id"),
    ], ids=["mixed-case", "not-a-str"])
    def test_node_ids_must_be_canonical(self, node, message):
        with pytest.raises(ParseError) as caught:
            PyramidGraph("p", [node], [(node.id, "narration")], [])
        assert str(caught.value) == message

    @pytest.mark.parametrize("edges_cr, edges_ec, message", [
        ([("c", "r")], [], "edge references unknown C-node 'c'"),
        ([("c0", "narration"), ("c0", "r")], [],
         "c_nodes[0].modes[1]: C-node 'c0' references unknown R-node 'r'"),
        ([], [("e", "c0")], "edge references unknown E-node 'e'"),
        ([], [("e0", "c")], "e_nodes[0].cognitive[0]: E-node 'e0' references unknown C-node 'c'"),
    ], ids=["c-of-cr", "r", "e", "c-of-ec"])
    def test_unknown_edge_end_named_with_its_layer(self, edges_cr, edges_ec, message):
        nodes = [LayerNode(C, "c0", "C0"), LayerNode(E, "e0", "E0")]
        with pytest.raises(BadEdge) as caught:
            PyramidGraph("p", nodes, edges_cr, edges_ec)
        assert str(caught.value) == message

    @pytest.mark.parametrize("edge", [(["c0"], "narration"), ("c0",), None],
                             ids=["unhashable-id", "one-id", "none"])
    def test_edge_that_is_not_a_pair_of_ids(self, edge):
        with pytest.raises(BadEdge) as caught:
            PyramidGraph("p", [LayerNode(C, "c0", "C0")], [edge], [])
        assert str(caught.value) == f"edge {edge!r} is not a pair of node ids"

    @pytest.mark.parametrize("r_nodes, target, message", [
        ([LayerNode(R, "narration", "Narration"), LayerNode(R, "cause", "Cause")], "narration",
         "node 'narration' has layer 'R'; a graph is given only C- and E-nodes"),
        ([LayerNode(R, "narration", "N")], "narration",
         "node 'narration' has layer 'R'; a graph is given only C- and E-nodes"),
        ([LayerNode(R, "story", "Story")], "story",
         "node 'story' has layer 'R'; a graph is given only C- and E-nodes"),
        ([], "story", "c_nodes[0].modes[0]: C-node 'c' references unknown R-node 'story'"),
        ([LayerNode(["C"], "x", "X")], "narration",
         "node 'x' has layer ['C']; a graph is given only C- and E-nodes"),
    ], ids=["stray-r-node", "r-name-unlike-its-mode", "r-node-outside-the-registry",
            "mode-outside-the-registry", "unhashable-layer"])
    def test_r_layer_comes_only_from_the_registry(self, r_nodes, target, message):
        """A stray R-node, an R-node titled unlike its mode, or one outside
        ``graph.registry`` would serialize to a document that loads back
        different, so none can be given."""
        with pytest.raises(BadEdge) as caught:
            PyramidGraph("p", [LayerNode(C, "c", "C"), *r_nodes], [("c", target)], [])
        assert str(caught.value) == message

    def test_r_layer_is_the_named_registry_modes(self, registry):
        graph = PyramidGraph("p", [LayerNode(C, "c", "C")], [("c", "narration")], [])
        narration = registry.get("narration")
        assert graph.layer_nodes(R) == (LayerNode(R, "narration", narration.display_name,
                                                  narration.description),)
        assert load_pyramid(source=serialize_pyramid(graph)) == graph

class TestComposeAcademic:
    def test_definition_complex(self, registry):
        definition_fn, claim_fn = academic_function_examples()
        mode = compose_academic(registry, definition_fn)
        assert mode.id == "af-definition"
        assert mode.constituents == (
            "definition", "comparison", "exemplification", "classification")
        assert mode.arity == "compound"
        assert mode.origin.kind == "generated"
        assert mode.origin.operator == "academic-composition"

    def test_claim_complex(self, registry):
        _, claim_fn = academic_function_examples()
        mode = compose_academic(registry, claim_fn)
        assert mode.id == "af-claim"
        assert mode.constituents == (
            "cause-effect", "argument", "evaluation", "comparison", "evidence")

    def test_aliases_resolve_in_functions(self, registry):
        mode = compose_academic(
            registry, AcademicFunction("story", "narrative", ("illustration",)))
        assert mode.constituents == ("narration", "evidence")

    def test_no_supplements_rejected(self, registry):
        with pytest.raises(BadComposition):
            compose_academic(registry, AcademicFunction("bare", "definition", ()))

    def test_core_repeated_rejected(self, registry):
        with pytest.raises(BadComposition):
            compose_academic(registry, AcademicFunction(
                "loop", "definition", ("comparison", "definition")))

    def test_unknown_mode(self, registry):
        with pytest.raises(UnknownMode):
            compose_academic(registry, AcademicFunction(
                "ghost", "definition", ("no-such-mode",)))

    def test_function_name_without_an_id_rejected(self, registry):
        # "a--b" would give "af-a--b", the id kept for the diatomic of "af-a" and "b".
        for name in ("!!!", "a--b"):
            with pytest.raises(BadComposition) as caught:
                compose_academic(registry, AcademicFunction(name, "definition", ("comparison",)))
            assert str(caught.value) == f"cannot form an id from function name {name!r}"


class TestFixtureIntegrity:
    def test_fixture_counts(self, expected_edges):
        assert len(expected_edges["c"]) == 14
        assert len(expected_edges["e"]) == 8
        assert sum(len(v) for v in expected_edges["c"].values()) == 46
        assert sum(len(v) for v in expected_edges["e"].values()) == 34

    def test_fixture_has_no_duplicate_targets(self, expected_edges):
        for targets in list(expected_edges["c"].values()) + \
                list(expected_edges["e"].values()):
            assert len(targets) == len(set(targets))
