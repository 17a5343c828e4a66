import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rhetor import (
    BadConstituent,
    DuplicateMode,
    Mode,
    Origin,
    ParseError,
    Registry,
    UnknownMode,
    UnknownNode,
    base_atoms,
    branching_stats,
    canon,
    closure,
    compose_re,
    default_registry,
    forward_backward,
    load_pyramid,
    load_registry,
    parse_document,
    serialize_registry,
    split,
    unite,
)
from rhetor.registry import _ID_PATTERN, _title, generated_mode

# Canonical names: lowercase words joined by single hyphens.
CANONICAL_NAMES = st.lists(st.text("abcnoprt", min_size=1, max_size=6),
                           min_size=1, max_size=3).map("-".join)


class TestCanon:
    @pytest.mark.parametrize("raw, expected", [
        ("Comparison--Contrast", "comparison-contrast"),
        ("Comparison–Contrast", "comparison-contrast"),
        ("Comparison—Contrast", "comparison-contrast"),
        ("  CAUSE-EFFECT  ", "cause-effect"),
        ("Process Analysis", "process-analysis"),
        ("Test / Validate", "test-validate"),
        ("Reflect / Meta-cognitive Assessment", "reflect-meta-cognitive-assessment"),
        ("définition!?", "dfinition"),
        ("a  -  b", "a-b"),
        ("-edge-hyphens-", "edge-hyphens"),
        ("analogy--narration", "analogy--narration"),  # a mode id comes back as it is
        ("Analogy--Narration", "analogy-narration"),
    ])
    def test_examples(self, raw, expected):
        assert canon(raw) == expected

    @given(st.text(max_size=40))
    def test_idempotent(self, s):
        assert canon(canon(s)) == canon(s)

    @given(st.text(max_size=40))
    def test_output_shape(self, s):
        c = canon(s)
        assert c == "" or (c[0] != "-" and c[-1] != "-"
                           and ("--" not in c or _ID_PATTERN.match(c)))


class TestNameCaches:
    """``canon`` and ``_title`` each keep one bounded, process-wide cache."""

    @given(st.text(max_size=40))
    def test_canon_cache_returns_the_computed_id(self, s):
        expected = canon.__wrapped__(s)
        assert canon(s) == expected  # first call
        assert canon(s) == expected  # repeated call: a cache hit

    @given(st.from_regex(_ID_PATTERN, fullmatch=True))
    def test_title_cache_returns_the_computed_name(self, mode_id):
        expected = _title.__wrapped__(mode_id)
        assert _title(mode_id) == expected
        assert _title(mode_id) == expected

    def test_caches_are_bounded(self):
        for function in (canon, _title):
            assert isinstance(function.cache_info().maxsize, int)

    def test_one_spelling_resolves_per_registry(self):
        """Only spelling work is cached: what a spelling names stays per registry."""
        narrated = load_registry({"aliases": {"tale": "narration"}})
        described = load_registry({"aliases": {"tale": "description"}})
        text = "doc d\nstage s\nseg | Tale\n"
        for _ in range(2):
            assert parse_document(text, narrated).mode_union() == {"narration"}
            assert parse_document(text, described).mode_union() == {"description"}
        mapping = {"c_nodes": [{"id": "c", "modes": ["Tale"]}],
                   "e_nodes": [{"id": "e", "cognitive": ["c"]}]}
        assert load_pyramid(source=mapping, registry=narrated).edges_cr == {("c", "narration")}
        assert load_pyramid(source=mapping).edges_cr == {("c", "tale")}  # minted


class TestDefaultRegistry:
    def test_partition(self, registry):
        assert len(registry) == 28
        atoms = registry.atoms()
        diatomics = registry.diatomics()
        compounds = [m for m in registry if len(m.constituents) > 2]
        assert len(atoms) == 21
        assert len(diatomics) == 7
        assert not compounds

    def test_diatomic_constituents_are_distinct_registered_atoms(self, registry):
        for mode in registry.diatomics():
            a, b = mode.constituents
            assert a != b
            assert registry.get(a).is_atomic
            assert registry.get(b).is_atomic

    def test_origin_split(self, registry):
        base = [m for m in registry if m.origin.kind == "base"]
        decomposed = [m for m in registry if m.origin.kind == "decomposed"]
        assert len(base) == 14
        assert len(decomposed) == 14
        assert all(m.is_atomic for m in decomposed)

    def test_atoms_read_is_stable(self, registry):
        assert registry.atoms() == registry.atoms()

    def test_default_registry_is_built_once(self):
        assert default_registry() is default_registry()

    def test_repr(self, registry):
        assert repr(registry) == "Registry(28 modes, version='builtin-1')"

    def test_never_equal_to_another_type(self, registry):
        assert (registry == list(registry)) is False
        assert (registry != registry.to_document()) is True

    def test_base_atoms(self):
        assert {m.id for m in base_atoms()} == {
            "analogy", "definition", "description", "evaluation",
            "exposition", "narration", "process-analysis",
        }


class TestResolve:
    @pytest.mark.parametrize("name, mode_id", [
        ("Comparison--Contrast", "comparison-contrast"),
        ("comparison–contrast", "comparison-contrast"),
        ("cause", "cause"),
        ("  Narration ", "narration"),
        ("narrative", "narration"),
        ("Illustration", "evidence"),
        ("argumentation", "argument"),
        ("persuation", "persuasion"),
        ("process", "process-analysis"),
        ("Cause and Effect", "cause-effect"),
        ("PROBLEM--SOLUTION", "problem-solution"),
    ])
    def test_lookup(self, registry, name, mode_id):
        assert registry.resolve(name).id == mode_id

    def test_resolve_mode_passthrough(self, registry):
        mode = registry.resolve("cause")
        assert registry.resolve(mode) is mode

    def test_typo_gets_suggestion(self, registry):
        with pytest.raises(UnknownMode) as excinfo:
            registry.resolve("narationn")
        assert "narration" in excinfo.value.suggestions
        assert len(excinfo.value.suggestions) <= 2

    def test_unknown_without_neighbors(self, registry):
        with pytest.raises(UnknownMode):
            registry.resolve("zzzzqqq")

    @given(st.data())
    def test_lookup_equals_canon_then_alias(self, data):
        """The exact-id fast path of ``_lookup`` changes no answer."""
        builtin = default_registry()
        ids = sorted(m.id for m in builtin)
        extra = data.draw(st.dictionaries(
            CANONICAL_NAMES.filter(lambda k: k not in builtin and k not in builtin.aliases),
            st.sampled_from(ids), max_size=4))
        registry = load_registry({"aliases": extra})
        aliases = registry.aliases
        known = data.draw(st.sampled_from(ids + sorted(aliases)))
        loose = data.draw(st.sampled_from([
            known, known.upper(), known.title(), known.replace("-", " "),
            known.replace("-", "–"), known.replace("-", "--"), f"  {known} "]))
        name = data.draw(st.one_of(st.just(loose), st.text(max_size=12)))
        cid = canon(name)
        expected = registry._modes.get(aliases.get(cid, cid))
        assert registry._lookup(name) is expected
        if expected is None:
            with pytest.raises(UnknownMode):
                registry.resolve(name)
        else:
            assert registry.resolve(name) is expected

    def test_arity_labels(self, registry):
        assert registry.resolve("cause").arity == "atomic"
        assert registry.resolve("cause-effect").arity == "diatomic"
        compound = Mode("x", "X", ("a", "b", "c"))
        assert compound.arity == "compound"


class TestSerializeLoad:
    def test_default_round_trip(self, registry):
        text = serialize_registry(registry)
        assert load_registry(text) == registry

    def test_serialization_is_deterministic(self, registry):
        assert serialize_registry(registry) == serialize_registry(registry)

    def test_load_none_is_default(self, registry):
        assert load_registry() == registry

    def test_extension_adds_mode(self, registry, extension_registry_path):
        extended = load_registry(extension_registry_path)
        assert len(extended) == 29
        summary = extended.resolve("summary")
        assert summary.is_atomic
        assert summary.origin.kind == "generated"
        assert summary.origin.operator == "reduce"
        assert extended.version == "extension-demo-1"

    def test_extension_round_trip(self, extension_registry_path):
        extended = load_registry(extension_registry_path)
        assert load_registry(serialize_registry(extended)) == extended

    def test_restating_a_builtin_is_a_noop(self, registry):
        doc = json.loads(serialize_registry(registry))
        doc["modes"] = [m for m in doc["modes"] if m["id"] == "cause"]
        assert load_registry(doc) == registry

    def test_path_source(self, tmp_path, registry):
        file = tmp_path / "reg.json"
        file.write_text(serialize_registry(registry))
        assert load_registry(Path(file)) == registry

    def test_duplicate_in_document(self):
        doc = {"modes": [
            {"id": "cause", "constituents": [], "description": "x"},
            {"id": "cause", "constituents": [], "description": "y"},
        ]}
        with pytest.raises(DuplicateMode):
            load_registry(doc)

    def test_conflicting_redefinition_of_builtin(self):
        doc = {"modes": [{"id": "cause", "display_name": "Cause",
                          "constituents": [], "description": "changed"}]}
        with pytest.raises(DuplicateMode):
            load_registry(doc)

    def test_unknown_constituent(self):
        doc = {"modes": [{"id": "x-y", "constituents": ["x", "y"],
                          "description": ""}]}
        with pytest.raises(BadConstituent):
            load_registry(doc)

    def test_diatomic_over_non_atomic_constituent(self):
        doc = {"modes": [{"id": "weird", "constituents": ["cause-effect", "cause"],
                          "description": ""}]}
        with pytest.raises(BadConstituent):
            load_registry(doc)

    def test_single_constituent_rejected(self):
        doc = {"modes": [{"id": "half", "constituents": ["cause"],
                          "description": ""}]}
        with pytest.raises(BadConstituent):
            load_registry(doc)

    def test_repeated_constituent_rejected(self):
        doc = {"modes": [{"id": "twice", "constituents": ["cause", "cause"],
                          "description": ""}]}
        with pytest.raises(BadConstituent):
            load_registry(doc)

    def test_second_diatomic_over_one_pair_rejected(self):
        """With two, ``unite`` would answer by construction order: the built-in
        first in a loaded document, the code's own first in ``Registry``."""
        message = "diatomic modes {!r} and {!r} join the same pair"
        ca = Mode("ca", "Ca", ("effect", "cause"))
        with pytest.raises(BadConstituent, match=message.format("ca", "cause-effect")):
            Registry([ca, *default_registry()])
        doc = {"modes": [{"id": "ca", "constituents": ["cause", "effect"], "description": ""}]}
        with pytest.raises(BadConstituent, match=message.format("cause-effect", "ca")):
            load_registry(doc)

    def test_invalid_id_rejected(self):
        doc = {"modes": [{"id": "Bad Id", "constituents": [], "description": ""}]}
        with pytest.raises(ParseError):
            load_registry(doc)

    @pytest.mark.parametrize("bad_id, reason", [
        ("a--b", "is reserved for the diatomic of 'a' and 'b'"),  # an atom may not take it
        ("a---b", "is not a valid identifier"),
        ("a--b--c", "is not a valid identifier"),
        ("ab-", "is not a valid identifier"),
        ("1ab", "is not a valid identifier"),
    ], ids=["a--b", "a---b", "a--b--c", "ab-", "1ab"])
    def test_non_canonical_id_rejected_with_position(self, bad_id, reason):
        doc = {"modes": [{"id": "story"}, {"id": bad_id}]}
        with pytest.raises(ParseError, match=r"modes\[1\]"):
            load_registry(doc)
        with pytest.raises(ParseError, match=reason):
            Registry([Mode(bad_id, "Bad")])

    def test_joined_id_is_reserved_for_its_diatomic(self):
        atoms = [{"id": "aa"}, {"id": "bb"}]
        registry = load_registry({"modes": atoms + [{"id": "aa--bb",
                                                      "constituents": ["aa", "bb"]}]})
        assert unite(registry, "bb", "aa") is registry.get("aa--bb")
        for constituents in ([], ["bb", "aa"], ["aa", "bb", "cause"]):
            with pytest.raises(ParseError, match=r"modes\[2\]: mode id 'aa--bb' is reserved"):
                load_registry({"modes": atoms + [{"id": "aa--bb",
                                                  "constituents": constituents}]})

    def test_joined_id_is_titled_like_unite(self):
        atoms = [{"id": "aa-cc"}, {"id": "bb"}]
        loaded = load_registry({"modes": atoms + [{"id": "aa-cc--bb",
                                                    "constituents": ["aa-cc", "bb"]}]})
        generated = unite(load_registry({"modes": atoms}), "bb", "aa-cc")
        assert generated.id == "aa-cc--bb"
        assert loaded.get("aa-cc--bb").display_name == generated.display_name == "Aa Cc-Bb"

    def test_unregistered_joined_id_does_not_resolve(self, registry):
        with pytest.raises(UnknownMode):
            registry.resolve("cause--effect")
        with pytest.raises(ParseError, match="alias 'cause--effect' is reserved"):
            Registry(list(registry), aliases={"cause--effect": "cause-effect"})

    def test_compound_over_a_joined_id_loads_back(self):
        registry = default_registry()
        pair = unite(registry, "narration", "analogy")
        extended = registry.with_modes([pair, Mode("story-frame", "Story Frame",
                                                   (pair.id, "cause", "effect"))])
        assert load_registry(serialize_registry(extended)) == extended
        loose = {"modes": [{"id": "frame", "constituents": ["Cause Effect", "analogy", "cause"]}]}
        assert load_registry(loose).get("frame").constituents == ("cause-effect", "analogy",
                                                                  "cause")

    def test_arity_mismatch_rejected(self):
        doc = {"modes": [{"id": "x", "arity": "diatomic", "constituents": [],
                          "description": ""}]}
        with pytest.raises(ParseError):
            load_registry(doc)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            load_registry("{\n  broken\n}")
        assert excinfo.value.line is not None

    def test_custom_alias(self):
        extended = load_registry({"modes": [], "aliases": {"story": "narration"}})
        assert extended.resolve("story").id == "narration"

    def test_alias_to_unknown_target(self):
        with pytest.raises(BadConstituent):
            load_registry({"modes": [], "aliases": {"story": "nope"}})

    def test_non_string_alias_target(self):
        with pytest.raises(ParseError):
            load_registry({"modes": [], "aliases": {"story": 3}})

    def test_alias_shadowing_a_mode_id(self):
        with pytest.raises(DuplicateMode):
            load_registry({"aliases": {"narration": "description"}})

    def test_two_spellings_of_one_alias_with_different_targets(self):
        with pytest.raises(DuplicateMode, match=r"aliases\['tale'\]: alias 'tale' already "
                                                r"points at 'narration'"):
            load_registry({"aliases": {"Tale": "narration", "tale": "description"}})

    def test_alias_redefining_a_builtin_alias(self):
        with pytest.raises(DuplicateMode, match=r"aliases\['narrative'\]"):
            load_registry({"aliases": {"narrative": "description"}})

    def test_restating_an_alias_is_a_no_op(self):
        restated = load_registry({"aliases": {"Narrative": "Narration", "tale": "narration",
                                              "TALE": "narration"}})
        assert restated == load_registry({"aliases": {"tale": "narration"}})
        assert load_registry(serialize_registry(restated)) == restated

    @pytest.mark.parametrize("key", ["!!!", "", "  -  ", "—"])
    def test_alias_key_without_letters_or_digits_rejected(self, key):
        with pytest.raises(ParseError, match=r"aliases\[" + repr(key) + r"\]"):
            load_registry({"aliases": {key: "narration"}})

    @pytest.mark.parametrize("junk", ["?", "—", "  -  "])
    def test_junk_names_stay_unknown(self, junk):
        extended = load_registry({"aliases": {"tale": "narration"}})
        with pytest.raises(UnknownMode):
            extended.resolve(junk)

    def test_canonical_alias_key_starting_with_a_digit(self):
        extended = load_registry({"aliases": {"9Lives": "narration"}})
        assert extended.aliases["9lives"] == "narration"
        assert extended.resolve("9lives").id == "narration"

    @pytest.mark.parametrize("key", ["", "Narrative", "tall tale", "-story"])
    def test_registry_rejects_non_canonical_alias_key(self, key):
        with pytest.raises(ParseError, match="not a canonical name"):
            Registry([Mode("narration", "Narration")], aliases={key: "narration"})

    def test_registry_accepts_canonical_alias_key(self):
        reg = Registry([Mode("narration", "Narration")], aliases={"9lives": "narration"})
        assert reg.resolve("9LIVES").id == "narration"

    def test_non_string_display_name(self):
        doc = {"modes": [{"id": "story", "display_name": 5, "description": ""}]}
        with pytest.raises(ParseError):
            load_registry(doc)

    def test_id_with_trailing_newline_rejected(self):
        with pytest.raises(ParseError):
            load_registry({"modes": [{"id": "story\n", "description": ""}]})

    def test_one_id_twice_in_code_rejected(self):
        with pytest.raises(DuplicateMode) as caught:
            Registry([Mode("a", "A"), Mode("a", "A")])
        assert str(caught.value) == "modes[1]: mode id 'a' defined more than once"

    def test_compound_nesting_a_compound_rejected(self):
        atoms = [Mode("a", "A"), Mode("b", "B"), Mode("c", "C")]
        with pytest.raises(BadConstituent) as caught:
            Registry([*atoms, Mode("abc", "ABC", ("a", "b", "c")),
                      Mode("x", "X", ("a", "b", "abc"))])
        assert str(caught.value) == "mode 'x' nests the compound mode 'abc'"

    def test_with_modes_refuses_a_changed_builtin(self, registry):
        with pytest.raises(DuplicateMode) as caught:
            registry.with_modes([Mode("narration", "Other")])
        assert str(caught.value) == ("modes[0]: mode id 'narration' conflicts with an "
                                     "existing definition")

    def test_with_modes_refuses_one_id_given_twice(self, registry):
        for modes in ([Mode("story", "Story")] * 2,
                      [Mode("story", "Story"), Mode("story", "Tale")],
                      [registry.get("narration")] * 2):
            with pytest.raises(DuplicateMode) as caught:
                registry.with_modes(modes)
            assert str(caught.value) == f"modes[1]: mode id {modes[0].id!r} defined more than once"

    def test_with_modes_restating_a_registered_mode_is_a_no_op(self, registry):
        assert registry.with_modes([registry.get("narration")]) == registry

    def test_non_utf8_file_reports_line(self, tmp_path):
        file = tmp_path / "reg.json"
        file.write_bytes(b'{"modes": [],\n "version": "caf\xe9"}')
        with pytest.raises(ParseError) as excinfo:
            load_registry(file)
        assert excinfo.value.line == 2


class TestModeValue:
    def test_frozen(self, registry):
        mode = registry.resolve("cause")
        with pytest.raises(AttributeError):
            mode.id = "other"

    def test_generated_mode(self):
        atom = generated_mode("process-step", "reduce", ("process-analysis",), "One step.")
        assert atom.origin == Origin("generated", "reduce", ("process-analysis",))
        assert atom.display_name == "Process Step"
        assert atom.constituents == ()
        assert atom.description == "One step."
        pair = generated_mode("a-b", "unite", ("a", "b"), "Both.", ("a", "b"), "A-B")
        assert pair.display_name == "A-B"
        assert pair.constituents == ("a", "b")
        assert Mode("a", "A").origin == Origin("base")


HUGE = 10 ** 5000  # beyond float range, and beyond Python 3.11's int-to-text digit limit


@pytest.mark.parametrize("call, error, message", [
    (lambda reg, rules, graph: unite(reg, 0, "narration"), UnknownMode,
     "no mode named 0: a name must be a str, not int"),
    (lambda reg, rules, graph: unite(reg, "narration", HUGE), UnknownMode,
     "no mode named <int out of floating-point range>: a name must be a str, not int"),
    (lambda reg, rules, graph: split(reg, 0), UnknownMode,
     "no mode named 0: a name must be a str, not int"),
    (lambda reg, rules, graph: forward_backward(reg, rules, 0), UnknownMode,
     "no mode named 0: a name must be a str, not int"),
    (lambda reg, rules, graph: forward_backward(reg, rules, ["x"]), UnknownMode,
     "no mode named ['x']: a name must be a str, not list"),
    (lambda reg, rules, graph: closure(reg, rules, ["unite"], 1, seed=[0]), UnknownMode,
     "no mode named 0: a name must be a str, not int"),
    (lambda reg, rules, graph: reg.resolve(None), UnknownMode,
     "no mode named None: a name must be a str, not NoneType"),
    (lambda reg, rules, graph: reg.resolve(["x"]), UnknownMode,
     "no mode named ['x']: a name must be a str, not list"),
    (lambda reg, rules, graph: reg.resolve(b"narration"), UnknownMode,
     "no mode named b'narration': a name must be a str, not bytes"),
    (lambda reg, rules, graph: graph.node("C", 0), UnknownNode,
     "no C-layer node named 0: a name must be a str, not int"),
    (lambda reg, rules, graph: graph.node("C", ["x"]), UnknownNode,
     "no C-layer node named ['x']: a name must be a str, not list"),
    (lambda reg, rules, graph: compose_re(graph, 0), UnknownNode,
     "no E-layer node named 0: a name must be a str, not int"),
    (lambda reg, rules, graph: compose_re(graph, HUGE), UnknownNode,
     "no E-layer node named <int out of floating-point range>: a name must be a str, not int"),
    (lambda reg, rules, graph: graph.node(HUGE, "observe"), UnknownNode,
     "unknown layer <int out of floating-point range>"),
    (lambda reg, rules, graph: graph.layer_nodes(HUGE), UnknownNode,
     "unknown layer <int out of floating-point range>"),
    (lambda reg, rules, graph: branching_stats(graph).max_degree(HUGE), UnknownNode,
     "no out-degrees for layer <int out of floating-point range>"),
], ids=["unite", "unite-huge", "split", "forward-backward", "forward-backward-list",
        "closure-seed", "resolve-none", "resolve-list", "resolve-bytes", "node", "node-list",
        "compose-re", "compose-re-huge", "node-layer-huge", "layer-nodes-huge",
        "max-degree-huge"])
def test_a_name_that_is_not_a_str_is_refused(registry, rules, graph, call, error, message):
    """A name of another type names nothing: no hints are built for it, and
    ``_shown`` names an int too long to write."""
    with pytest.raises(error) as caught:
        call(registry, rules, graph)
    assert str(caught.value) == message
    assert caught.value.suggestions == ()
