import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    BadRuleSet,
    DualityRuleSet,
    Mode,
    NoDual,
    NotAtomic,
    NotDiatomic,
    Origin,
    ParseError,
    Registry,
    SelfUnite,
    UnknownMode,
    base_atoms,
    closure,
    default_registry,
    default_rules,
    expand,
    forward_backward,
    load_registry,
    load_rules,
    orthogonal,
    reduce,
    serialize_rules,
    split,
    unite,
)
from rhetor.operators import OPERATOR_KINDS, operator_kind

ATOM_IDS = sorted(m.id for m in default_registry().atoms())
DIATOMIC_IDS = sorted(m.id for m in default_registry().diatomics())

atom_pairs = st.tuples(st.sampled_from(ATOM_IDS), st.sampled_from(ATOM_IDS)).filter(
    lambda ab: ab[0] != ab[1])


class TestSplit:
    def test_examples(self, registry):
        assert [m.id for m in split(registry, "classification-division")] == [
            "classification", "division"]
        assert [m.id for m in split(registry, "cause-effect")] == ["cause", "effect"]

    def test_atomic_input_rejected(self, registry):
        with pytest.raises(NotDiatomic):
            split(registry, "narration")

    def test_stored_order_preserved(self, registry):
        assert [m.id for m in split(registry, "exemplification-illustration")] == [
            "exemplification", "evidence"]

    def test_split_of_generated_diatomic(self, registry):
        generated = unite(registry, "narration", "analogy")
        assert {m.id for m in split(registry, generated)} == {"narration", "analogy"}

    def test_parts_the_registry_lacks_are_generated(self, registry):
        lacking = Registry([Mode("narration", "Narration")])
        parts = split(lacking, registry.get("cause-effect"))
        assert [m.id for m in parts] == ["cause", "effect"]
        for part in parts:
            assert part.is_atomic
            assert part.origin == Origin("generated", "split", ("cause-effect",))
            assert part.description == "Constituent of cause-effect."


class TestUnite:
    def test_new_pair_is_generated_with_sorted_id(self, registry):
        mode = unite(registry, "narration", "description")
        assert mode.id == "description--narration"
        assert mode.display_name == "Description-Narration"
        assert mode.origin.kind == "generated"
        assert mode.origin.operator == "unite"
        assert mode.constituents == ("description", "narration")

    def test_recomposition_returns_registered_mode(self, registry):
        assert unite(registry, "cause", "effect") is registry.resolve("cause-effect")
        assert unite(registry, "effect", "cause") is registry.resolve("cause-effect")

    def test_self_rejected(self, registry):
        with pytest.raises(SelfUnite):
            unite(registry, "narration", "narration")

    def test_non_atomic_rejected(self, registry):
        with pytest.raises(NotAtomic):
            unite(registry, "cause-effect", "narration")

    @given(atom_pairs)
    @settings(max_examples=60)
    def test_commutative(self, pair):
        registry = default_registry()
        a, b = pair
        assert unite(registry, a, b) == unite(registry, b, a)

    @given(atom_pairs)
    @settings(max_examples=60)
    def test_split_inverts_unite(self, pair):
        registry = default_registry()
        a, b = pair
        parts = split(registry, unite(registry, a, b))
        assert {m.id for m in parts} == {a, b}

    def test_unite_inverts_split(self, registry):
        for diatomic_id in DIATOMIC_IDS:
            parts = split(registry, diatomic_id)
            assert unite(registry, *parts).id == diatomic_id


# A registered diatomic whose constituents are stored out of id order.
SWAPPED = Registry([Mode("a", "A"), Mode("b", "B"), Mode("c", "C"),
                    Mode("b-a", "B-A", ("b", "a"))])


class TestDiatomicStoredOutOfIdOrder:
    def test_unite_and_the_index_find_it_in_both_orders(self):
        mode = SWAPPED.get("b-a")
        assert unite(SWAPPED, "a", "b") is mode and unite(SWAPPED, "b", "a") is mode
        assert SWAPPED.diatomic_for_pair("a", "b") is mode
        assert SWAPPED.diatomic_for_pair("b", "a") is mode
        assert SWAPPED.diatomic_for_pair("a", "c") is None

    def test_closure_records_its_inputs_in_id_order(self):
        derivations = {d.result_ids: d for d in closure(SWAPPED, DualityRuleSet(), "unite")}
        found = derivations[("b-a",)]
        assert found.inputs == ("a", "b") and found.rediscovery
        generated = derivations[("a--c",)]
        assert generated.inputs == generated.results[0].constituents == ("a", "c")
        assert not generated.rediscovery


class TestUnaryDualities:
    def test_reversal_examples(self, registry, rules):
        partner = forward_backward(registry, rules, "exemplification")
        assert partner.id == "generalization"
        assert partner.origin.kind == "generated"
        assert forward_backward(registry, rules, "division").id == "combination"
        assert forward_backward(registry, rules, "cause").id == "effect"

    def test_reversal_unpaired(self, registry, rules):
        with pytest.raises(NoDual):
            forward_backward(registry, rules, "analogy")

    def test_reversal_non_atomic(self, registry, rules):
        with pytest.raises(NotAtomic):
            forward_backward(registry, rules, "cause-effect")

    def test_reversal_involution_on_all_paired(self, registry, rules):
        for a, b in rules.reversal_pairs:
            for m in (a, b):
                back = forward_backward(registry, rules,
                                        forward_backward(registry, rules, m))
                assert back.id == m

    def test_scale_examples(self, registry, rules):
        assert reduce(registry, rules, "exposition").id == "summary"
        assert expand(registry, rules, "summary").id == "exposition"

    def test_scale_sides(self, registry, rules):
        with pytest.raises(NoDual):
            reduce(registry, rules, "cause")
        with pytest.raises(NoDual):
            expand(registry, rules, "exposition")
        with pytest.raises(NoDual):
            reduce(registry, rules, "summary")

    def test_scale_round_trip(self, registry, rules):
        for expanded, reduced in rules.scale_pairs:
            assert expand(registry, rules, reduce(registry, rules, expanded)).id == expanded
            assert reduce(registry, rules, expand(registry, rules, reduced)).id == reduced

    def test_orthogonal_examples(self, registry, rules):
        assert orthogonal(registry, rules, "narration").id == "description"
        assert orthogonal(registry, rules, "description").id == "narration"

    def test_orthogonal_unpaired(self, registry, rules):
        with pytest.raises(NoDual):
            orthogonal(registry, rules, "definition")

    def test_orthogonal_involution(self, registry, rules):
        for a, b in rules.orthogonal_pairs:
            for m in (a, b):
                assert orthogonal(registry, rules,
                                  orthogonal(registry, rules, m)).id == m

    def test_unknown_name_still_unknown(self, registry, rules):
        with pytest.raises(UnknownMode):
            forward_backward(registry, rules, "no-such-mode")

    def test_rule_member_that_is_an_alias_names_its_mode(self, registry):
        rules = load_rules({"reversal": [["narrative", "tale"]]})  # narrative → narration
        assert forward_backward(registry, rules, "tale") is registry.get("narration")
        tale = forward_backward(registry, rules, "narrative")
        assert tale.id == "tale"
        assert forward_backward(registry, rules, "narration") == tale
        assert registry.with_modes([tale]).get("tale") == tale
        derived = closure(registry, rules, "forward_backward", seed=["narration"])
        assert [d.result_ids for d in derived] == [("tale",)]

    def test_pair_naming_one_mode_through_an_alias_rejected(self, registry):
        rules = load_rules({"reversal": [["narration", "narrative"]]})
        with pytest.raises(BadRuleSet, match="names one mode, 'narration'"):
            forward_backward(registry, rules, "narration")
        with pytest.raises(BadRuleSet):
            closure(registry, rules, "forward_backward")

    def test_member_in_two_pairs_through_an_alias_rejected(self):
        registry = load_registry({"aliases": {"tale": "narration"}})
        rules = load_rules({"reversal": [["narration", "x"], ["tale", "y"]]})
        with pytest.raises(BadRuleSet) as caught:
            forward_backward(registry, rules, "narration")
        assert str(caught.value) == ("mode 'narration' appears in two reversal pairs "
                                     "under the registry's aliases")


class TestRuleSet:
    def test_default_pairs(self, rules):
        assert ("cause", "effect") in rules.reversal_pairs
        assert ("problem", "solution") in rules.reversal_pairs
        assert ("exemplification", "generalization") in rules.reversal_pairs
        assert ("combination", "division") in rules.reversal_pairs
        assert rules.scale_pairs == (("exposition", "summary"),)
        assert rules.orthogonal_pairs == (("description", "narration"),)

    def test_round_trip(self, rules):
        assert load_rules(serialize_rules(rules)) == rules

    def test_load_none_is_default(self, rules):
        assert load_rules() == rules

    def test_repr(self, rules):
        assert repr(rules) == "DualityRuleSet(reversal=4, scale=1, orthogonal=1)"

    def test_never_equal_to_another_type(self, rules):
        assert (rules == rules.to_document()) is False
        assert (rules != "rules") is True

    def test_repeated_mode_in_relation_rejected(self):
        with pytest.raises(BadRuleSet):
            DualityRuleSet(reversal=[("a", "b"), ("a", "c")])
        with pytest.raises(BadRuleSet):
            DualityRuleSet(scale=[("a", "b"), ("c", "a")])

    def test_self_pair_rejected(self):
        with pytest.raises(BadRuleSet):
            DualityRuleSet(orthogonal=[("a", "a")])

    def test_wrong_pair_size_rejected(self):
        with pytest.raises(BadRuleSet):
            DualityRuleSet(reversal=[("a", "b", "c")])

    @pytest.mark.parametrize("member", ["9 lives", "2nd"])
    def test_member_that_is_no_mode_id_rejected(self, member):
        # canon keeps a leading digit, so these names would come back from
        # the operators as modes no registry accepts.
        with pytest.raises(BadRuleSet, match=re.escape(f"reversal pair ('cause', {member!r})")):
            load_rules({"reversal": [["cause", member]]})

    def test_unknown_section_rejected(self):
        with pytest.raises(BadRuleSet):
            load_rules({"reversal": [], "bogus": []})

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_rules("{not json")

    def test_pairs_are_read_only(self):
        rules = default_rules()
        for relation in ("reversal", "scale", "orthogonal"):
            with pytest.raises(AttributeError):
                setattr(rules, f"{relation}_pairs", ())
        assert rules == default_rules()
        assert rules.to_document()["scale"] == [["exposition", "summary"]]
        assert reduce(default_registry(), rules, "exposition").id == "summary"

    def test_joined_member_is_kept(self):
        rules = load_rules({"reversal": [["analogy--narration", "cc"]]})
        assert rules.to_document()["reversal"] == [["analogy--narration", "cc"]]
        assert load_rules(serialize_rules(rules)) == rules
        registry = default_registry()
        pair = unite(registry, "narration", "analogy")
        assert forward_backward(registry.with_modes([pair]), rules, "cc") == pair
        # Unregistered, the joined member is no atom the operators may make.
        with pytest.raises(ParseError, match="mode id 'analogy--narration' is reserved"):
            forward_backward(registry, rules, "cc")

    def test_pairs_canonicalized(self):
        ruleset = DualityRuleSet(reversal=[("Cause", "Effect ")])
        assert forward_backward(default_registry(), ruleset, "cause").id == "effect"


class TestClosure:
    def test_split_depth_one(self, registry, rules):
        derivations = closure(registry, rules, ["split"], 1)
        assert len(derivations) == 7
        results = [rid for d in derivations for rid in d.result_ids]
        assert len(results) == 14
        assert all(d.rediscovery for d in derivations)
        assert all(d.depth == 1 for d in derivations)

    def test_unite_over_base_atoms(self, registry, rules):
        derivations = closure(registry, rules, ["unite"], 1, seed=base_atoms())
        assert len(derivations) == 21
        assert not any(d.rediscovery for d in derivations)

    def test_unite_over_all_atoms(self, registry, rules):
        derivations = closure(registry, rules, ["unite"], 1)
        assert len(derivations) == 210
        rediscovered = {d.result_ids[0] for d in derivations if d.rediscovery}
        assert rediscovered == set(DIATOMIC_IDS)

    def test_forward_backward_depth_one(self, registry, rules):
        derivations = closure(registry, rules, ["fb"], 1)
        produced = {d.inputs[0]: d.result_ids[0] for d in derivations}
        assert produced["exemplification"] == "generalization"
        assert produced["division"] == "combination"

    def test_split_of_a_seed_outside_the_registry_mixes_held_and_generated(
            self, registry, rules):
        outside = Mode("cause--zeta", "Cause-Zeta", ("cause", "zeta"))
        [derivation] = closure(registry, rules, ["split"], 1, seed=[outside])
        assert derivation.result_ids == ("cause", "zeta")
        assert derivation.held == (registry.get("cause"),)
        assert not derivation.rediscovery
        assert derivation.results == split(registry, outside)
        assert derivation.results[1].origin.inputs == ("cause--zeta",)

    def test_generated_atoms_feed_later_depths(self, registry, rules):
        derivations = closure(registry, rules, ["reduce", "expand"], 3)
        by_depth = {d.depth: d for d in derivations}
        assert by_depth[1].result_ids == ("summary",)
        assert by_depth[2].result_ids == ("exposition",)
        assert by_depth[2].rediscovery
        assert len(derivations) == 2

    def test_deterministic(self, registry, rules):
        first = closure(registry, rules, OPERATOR_KINDS, 2)
        second = closure(registry, rules, OPERATOR_KINDS, 2)
        assert first == second

    def test_output_order(self, registry, rules):
        derivations = closure(registry, rules, OPERATOR_KINDS, 2)
        keys = [(d.depth, d.result_ids) for d in derivations]
        assert keys == sorted(keys)

    def test_each_result_id_derived_once(self, registry, rules):
        derivations = closure(registry, rules, OPERATOR_KINDS, 3)
        seen = [rid for d in derivations for rid in d.result_ids]
        assert len(seen) == len(set(seen))

    def test_monotone_in_depth(self, registry, rules):
        shallow = {rid for d in closure(registry, rules, OPERATOR_KINDS, 1)
                   for rid in d.result_ids}
        deep = {rid for d in closure(registry, rules, OPERATOR_KINDS, 2)
                for rid in d.result_ids}
        assert shallow <= deep

    def test_monotone_in_ops(self, registry, rules):
        small = {rid for d in closure(registry, rules, ["unite"], 1)
                 for rid in d.result_ids}
        large = {rid for d in closure(registry, rules, ["unite", "split", "fb"], 1)
                 for rid in d.result_ids}
        assert small <= large

    @given(st.sets(st.sampled_from(ATOM_IDS), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_unite_count_is_choose_two(self, seed_ids):
        registry = default_registry()
        derivations = closure(registry, default_rules(), ["unite"], 1, seed=seed_ids)
        assert len(derivations) == math.comb(len(seed_ids), 2)

    def test_terminates_at_large_depth(self, registry, rules):
        derivations = closure(registry, rules, OPERATOR_KINDS, 50)
        assert max(d.depth for d in derivations) < 10

    def test_rules_default_to_the_built_in_rules(self, registry, rules):
        assert closure(registry) == closure(registry, default_rules())
        assert closure(registry, max_depth=2) == closure(registry, rules, max_depth=2)

    @pytest.mark.parametrize("depth, message", [
        (0, "max_depth must be at least 1"),
        (True, "max_depth must be an integer, got True"),
        (1.5, "max_depth must be an integer, got 1.5"),
        ("2", "max_depth must be an integer, got '2'"),
    ])
    def test_depth_must_be_a_positive_int(self, registry, rules, depth, message):
        with pytest.raises(ValueError) as caught:
            closure(registry, rules, OPERATOR_KINDS, depth)
        assert str(caught.value) == message

    def test_bad_arguments(self, registry, rules):
        with pytest.raises(ValueError):
            closure(registry, rules, OPERATOR_KINDS, 0)
        with pytest.raises(ValueError):
            closure(registry, rules, [], 1)
        with pytest.raises(ValueError):
            closure(registry, rules, ["bogus"], 1)
        # Neither a name nor an iterable: refused as a bad max_depth is.
        with pytest.raises(ValueError) as caught:
            closure(registry, rules, 0, 1)
        assert str(caught.value) == "ops must be an operator name or an iterable of them, got 0"
        with pytest.raises(ValueError) as caught:
            closure(registry, rules, OPERATOR_KINDS, 1, seed=0)
        assert str(caught.value) == ("seed must be a mode, a mode name or an iterable of them, "
                                     "got 0")

    def test_bare_string_names_one_operator(self, registry, rules):
        assert (closure(registry, rules, "unite", 1)
                == closure(registry, rules, ["unite"], 1))
        assert closure(registry, rules, "fb", 1) == closure(registry, rules, ["fb"], 1)
        with pytest.raises(ValueError, match="'bogus'"):
            closure(registry, rules, "bogus", 1)

    def test_bare_seed_names_one_mode(self, registry, rules):
        as_list = closure(registry, rules, "fb", 1, seed=["cause"])
        assert [d.result_ids for d in as_list] == [("effect",)]
        assert closure(registry, rules, "fb", 1, seed="cause") == as_list
        assert closure(registry, rules, "fb", 1, seed=registry.get("cause")) == as_list
        # One atom has no pair to unite; the name is not read letter by letter.
        assert closure(registry, rules, "unite", 1, seed="narration") == ()


class TestOperatorNames:
    def test_aliases(self):
        assert operator_kind("fb") == "forward_backward"
        assert operator_kind("ortho") == "orthogonal"
        assert operator_kind("split") == "split"

    def test_unknown(self):
        with pytest.raises(ValueError):
            operator_kind("merge")
