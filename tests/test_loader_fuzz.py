"""Every loader turns any input, however broken, into a domain error or a value."""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    ACADEMIC_PROFILE,
    BadEdge,
    BadRuleSet,
    BadSchedule,
    DuplicateMode,
    ParseError,
    RhetorError,
    default_registry,
    default_rules,
    default_schedule,
    load_pyramid,
    load_registry,
    load_rules,
    load_schedule,
    load_stage_map,
    parse_document,
    serialize_pyramid,
    serialize_registry,
    serialize_rules,
    serialize_schedule,
)

LOADERS = {
    "registry": load_registry,
    "rules": load_rules,
    "mapping": lambda source: load_pyramid(source=source),
    "stage map": load_stage_map,
    "schedule": load_schedule,
    "annotation": parse_document,
}

# Field names of every document kind, so generated JSON reaches the field checks.
FIELDS = ("modes", "aliases", "version", "id", "display_name", "arity", "constituents",
          "origin", "operator", "inputs", "description", "reversal", "scale",
          "orthogonal", "profile", "c_nodes", "e_nodes", "cognitive", "stages", "stage",
          "c", "e", "name", "K", "duration")
NAMES = st.sampled_from(("narration", "cause", "effect", "cause-effect", "observe",
                         "teaching-learning", "base", "generated", "atomic", "diatomic",
                         "Part I")) | st.text(max_size=8)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | NAMES
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4),
                                     inner, max_size=5)),
    max_leaves=24)
RMA_LINES = st.builds("{} {}".format,
                      st.sampled_from(("doc", "declared_K", "stage", "seg", "seg 2", "#", "")),
                      st.text(max_size=20) | NAMES | st.integers().map(str))
SOURCES = (st.text()
           | JSON_VALUES.map(json.dumps)
           | st.lists(RMA_LINES, max_size=8).map("\n".join)
           | st.binary(max_size=64))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(LOADERS)), source=SOURCES)
def test_loaders_raise_only_domain_errors(scratch_file, kind, source):
    """Text is loaded as given; bytes are loaded from a file."""
    if isinstance(source, bytes):
        scratch_file.write_bytes(source)
        source = scratch_file
    try:
        LOADERS[kind](source)
    except RhetorError:
        pass


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["deep", "long-int"])
@pytest.mark.parametrize("kind", sorted(set(LOADERS) - {"annotation"}))
def test_json_beyond_parser_limits(kind, text):
    with pytest.raises(ParseError):
        LOADERS[kind](text)


# For each JSON loader: a section that is not a list, an entry that is not an
# object, a text field and a names field of the wrong type, an empty required
# field, and the errors that name where in the document they happened.
ERROR_TABLE = [
    ("registry", {"modes": {}}, ParseError, "registry 'modes' must be a list"),
    ("registry", {"modes": [{"id": "story"}, "x"]}, ParseError,
     "modes[1]: entries must be objects"),
    ("registry", {"modes": [{"id": "story", "display_name": 5}]}, ParseError,
     "modes[0]: 'display_name' must be a string"),
    ("registry", {"modes": [{"id": "story", "constituents": "cause"}]}, ParseError,
     "modes[0]: 'constituents' must be a list of names"),
    ("registry", {"modes": [{"id": "story", "origin": {"operator": ""}}]}, ParseError,
     "modes[0].origin: 'operator' must be a non-empty string"),
    ("registry", {"modes": [{"id": "story", "origin": {"operator": "x", "inputs": [1]}}]},
     ParseError, "modes[0].origin: 'inputs' must be a list of names"),
    ("registry", {"modes": [{"id": "story"}, {"id": "narration", "description": "?"}]},
     DuplicateMode, "modes[1]: mode id 'narration' conflicts with an existing definition"),
    ("registry", {"modes": [{"id": "story"}, {"id": "story"}]}, DuplicateMode,
     "modes[1]: mode id 'story' defined more than once"),
    ("rules", {"reversal": {}}, BadRuleSet,
     "rules section 'reversal' must be a list of name pairs"),
    ("rules", {"reversal": [["cause", "effect"], "ab"]}, BadRuleSet,
     "reversal[1]: reversal pair 'ab' must be a list of names"),
    ("rules", {"scale": [["exposition", 5]]}, BadRuleSet,
     "scale[0]: scale pair ['exposition', 5] must be a list of names"),
    ("rules", {"orthogonal": [["a", "b"], ["c"]]}, BadRuleSet,
     "orthogonal[1]: orthogonal pair ('c',) must name two modes"),
    ("rules", {"reversal": [["a", "b"], ["A", "a"]]}, BadRuleSet,
     "reversal[1]: reversal pair repeats 'a'"),
    ("rules", {"scale": [["a", "b"], ["c", "b"]]}, BadRuleSet,
     "scale[1]: scale pair ('c', 'b'): mode 'b' appears in two scale pairs"),
    ("mapping", {"c_nodes": "observe"}, ParseError, "mapping 'c_nodes' must be a list"),
    ("mapping", {"e_nodes": [None]}, ParseError, "e_nodes[0]: entries must be objects"),
    ("mapping", {"c_nodes": [{"id": "c", "description": 1, "modes": ["narration"]}]},
     ParseError, "c_nodes[0]: 'description' must be a string"),
    ("mapping", {"c_nodes": [{"id": "c", "modes": "narration"}]}, ParseError,
     "c_nodes[0]: 'modes' must be a list of names"),
    ("mapping", {"c_nodes": [{"id": "", "modes": ["narration"]}]}, ParseError,
     "c_nodes[0]: node '' in layer C is not a canonical id"),
    ("mapping", {"c_nodes": [{"id": "a", "modes": ["narration"]},
                             {"id": "b", "modes": ["cause", "effect", "!!!"]}]},
     ParseError, "c_nodes[1].modes[2]: invalid mode name '!!!' in 'custom' mapping"),
    ("mapping", {"c_nodes": [{"id": "a", "modes": ["narration"]}],
                 "e_nodes": [{"id": "e0", "cognitive": ["a"]},
                             {"id": "e1", "cognitive": ["a", "nope"]}]},
     BadEdge, "e_nodes[1].cognitive[1]: E-node 'e1' references unknown C-node 'nope'"),
    ("stage map", {"stages": "S"}, ParseError, "stage map 'stages' must be a list"),
    ("stage map", {"stages": [["S"]]}, ParseError, "stages[0]: entries must be objects"),
    ("stage map", {"stages": [{"stage": 1, "c": ["observe"], "e": "x"}]}, ParseError,
     "stages[0]: 'stage' must be a non-empty string"),
    ("stage map", {"stages": [{"stage": "S", "c": "observe", "e": "x"}]}, ParseError,
     "stages[0]: 'c' must be a non-empty list of names"),
    ("stage map", {"stages": [{"stage": "S", "c": ["observe"], "e": ""}]}, ParseError,
     "stages[0]: 'e' must be a non-empty string"),
    ("stage map", [{"stage": "S", "c": ["observe"], "e": "x"}], ParseError,
     "stage map document must be a JSON object"),
    ("schedule", {"stages": {}}, ParseError, "schedule 'stages' must be a list"),
    ("schedule", {"stages": [{"name": "a", "K": 2}, 3]}, ParseError,
     "stages[1]: entries must be objects"),
    ("schedule", {"stages": [{"name": 1, "K": 2}]}, ParseError,
     "stages[0]: 'name' must be a non-empty string"),
    ("schedule", {"stages": [{"name": "", "K": 2}]}, ParseError,
     "stages[0]: 'name' must be a non-empty string"),
    ("schedule", {"stages": [{"name": "a", "K": 5}, {"name": "b", "K": 3}]}, BadSchedule,
     "stages[1]: stage 'b': cumulative width decreases (5 then 3)"),
    # Rows are numbered in the test ids, so later rows go at the end.
    ("registry", {"aliases": {"tale": "narration", "story": 3}}, ParseError,
     "aliases['story']: alias must name a mode"),
    ("registry", {"modes": [{"id": "aa"}, {"id": "bb"}, {"id": "aa--bb"}]}, ParseError,
     "modes[2]: mode id 'aa--bb' is reserved for the diatomic of 'aa' and 'bb'"),
    ("mapping", {"c_nodes": [{"id": "a", "modes": ["narration"]}, {"id": "b", "modes": []}]},
     BadEdge, "c_nodes[1]: C-node 'b' lists no modes"),
    ("mapping", {"c_nodes": [{"id": "a", "modes": ["narration"]}],
                 "e_nodes": [{"id": "e0", "cognitive": ["a"]}, {"id": "e1", "cognitive": []}]},
     BadEdge, "e_nodes[1]: E-node 'e1' lists no cognitive functions"),
    ("registry", {"aliases": {"tale": "narration", "aa--bb": "narration"}}, ParseError,
     "aliases['aa--bb']: alias 'aa--bb' is reserved for the diatomic of 'aa' and 'bb'"),
    ("mapping", {"c_nodes": [{"id": "a", "modes": ["narration", "xx--yy"]}]}, ParseError,
     "c_nodes[0].modes[1]: invalid mode name 'xx--yy' in 'custom' mapping"),
    ("stage map", {"stages": [{"stage": "s", "c": ["observe"], "e": "teaching-learning"},
                              {"stage": "s", "c": ["infer"], "e": "scientific-discovery"}]},
     ParseError, "stages[1]: stage 's' is mapped twice"),
    ("schedule", {"stages": [{"name": "a", "K": 5}, {"name": "b", "K": 121}]}, BadSchedule,
     "stages[1]: stage 'b' needs a width of at most 120, got 121"),
    ("annotation", "doc\n", ParseError, "doc header needs an id (line 1)"),
    ("annotation", "doc d\ndeclared_K 3\ndeclared_K 3\n", ParseError,
     "duplicate declared_K directive (line 3)"),
    ("annotation", "doc d\nstage\n", ParseError, "stage line needs a label (line 2)"),
    ("registry", {"modes": [{"id": "story", "origin": "weird"}]}, ParseError,
     "modes[0]: unknown origin 'weird'"),
    ("registry", {"modes": [{"id": "story", "origin": 5}]}, ParseError,
     "modes[0]: origin must be a string or an object"),
    ("registry", {"modes": [{"display_name": "Story"}]}, ParseError,
     "modes[0]: missing or invalid id None"),
    ("registry", {"aliases": []}, ParseError, "registry 'aliases' must be an object"),
    ("schedule", {"stages": [{"name": "a", "K": 2, "duration": "3"}]}, ParseError,
     "stages[0]: 'duration' must be a number"),
    # A profile of 10**6 characters is cut short: the text stays under 1,000.
    ("mapping", {"profile": "x" * 10**6, "c_nodes": [{"id": "a", "modes": ["!!!"]}]},
     ParseError, "c_nodes[0].modes[0]: invalid mode name '!!!' in '" + "x" * 199
     + "... (1000002 characters) mapping"),
]


@pytest.mark.parametrize("kind, source, error, message", ERROR_TABLE,
                         ids=[f"{row[0]}-{n}" for n, row in enumerate(ERROR_TABLE)])
def test_loader_error_names_where(kind, source, error, message):
    with pytest.raises(RhetorError) as caught:
        LOADERS[kind](source)
    assert (type(caught.value), str(caught.value)) == (error, message)


# One leaf of a serialized built-in document, put in place of its value in
# the parsed document.  No JSON text carries an int this large on Python 3.11
# and later, but a parsed dict can, and every loader takes one.
HUGE = 10**5000
BAD_LEAVES = (HUGE, -HUGE, "x" * 10**6, [HUGE], None, 1.5, {})

#: The most characters any error text may have, whatever value it names.
TEXT_BOUND = 1000


def _leaf_paths(value, path=()):
    """The key path of every leaf of a parsed JSON document, in document order."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaf_paths(item, (*path, key))
    elif isinstance(value, list) and value:
        for position, item in enumerate(value):
            yield from _leaf_paths(item, (*path, position))
    else:
        yield path


BUILT_INS = {
    "registry": serialize_registry(default_registry()),
    "rules": serialize_rules(default_rules()),
    "mapping": serialize_pyramid(load_pyramid()),
    "academic mapping": serialize_pyramid(load_pyramid(ACADEMIC_PROFILE)),
    "schedule": serialize_schedule(default_schedule()),
    "stage map": (Path(__file__).parent / "fixtures" / "lesson_map.json").read_text(),
}
MUTATIONS = [(name, path) for name, text in BUILT_INS.items()
             for path in _leaf_paths(json.loads(text))]


def _load_with(name: str, path: tuple, bad) -> None:
    """Load built-in ``name`` with ``bad`` at ``path``: a value, or a domain
    error whose text stays under the bound."""
    doc = json.loads(BUILT_INS[name])
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    parent[last] = bad
    try:
        LOADERS[name.replace("academic ", "")](doc)
    except RhetorError as exc:
        assert len(str(exc)) < TEXT_BOUND, str(exc)[:TEXT_BOUND]


@pytest.mark.parametrize("name", sorted(BUILT_INS))
def test_every_leaf_of_a_built_in_takes_each_bad_value(name):
    for mutation, path in MUTATIONS:
        if mutation == name:
            for bad in BAD_LEAVES:
                _load_with(name, path, bad)


@settings(max_examples=300, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS),
       bad=st.sampled_from(BAD_LEAVES) | JSON_VALUES | st.integers(min_value=10**308))
def test_a_built_in_with_one_bad_leaf_loads_or_raises_a_domain_error(mutation, bad):
    _load_with(*mutation, bad)
