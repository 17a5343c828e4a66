"""Property: ``json_text`` writes the bytes of the strict ``json.dumps`` call it replaces.

The oracle is ``json.dumps(value, indent=2, sort_keys=True, default=sorted,
allow_nan=False)`` plus a newline.  Drawn values nest lists, tuples and dicts
with ``str`` keys around strings (non-ASCII, control characters, lone
surrogates), big ints, bools, ``None``, finite floats, and sets of strings.
Where the value holds a non-``str`` dict key, a NaN or an infinity, or a leaf
that is not JSON (an ``object()``, dict keys that do not sort), the writer
raises the class the oracle raises, with each non-``str`` key boxed in a
tuple so the oracle refuses it where it meets it instead of coercing it.

The writer stores each object shape it meets once per call, so further
values repeat one key set in several insertion orders and depths, and every
``serialize_*`` that writes JSON is checked against the oracle of its own
document.
"""
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rhetor import (ACADEMIC_PROFILE, base_atoms, default_registry, default_rules,
                    default_schedule, load_pyramid, serialize_pyramid, serialize_registry,
                    serialize_rules, serialize_schedule)
from rhetor.jsontext import json_text

TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = st.one_of(
    TEXT, st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(), st.integers(min_value=-2**200, max_value=2**200))
STRING_COLLECTIONS = st.one_of(
    st.lists(TEXT), st.lists(TEXT).map(tuple), st.sets(TEXT), st.frozensets(TEXT))
# Keys of these types sort against each other; json.dumps coerces them to str.
NUMBER_KEYS = st.one_of(st.integers(), st.floats(), st.booleans())


def _nested(leaves, *keys):
    """Values nested from ``leaves``; each dict draws its keys from one of ``keys``."""
    return st.recursive(
        st.one_of(leaves, STRING_COLLECTIONS),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            *(st.dictionaries(k, children, max_size=5) for k in keys)),
        max_leaves=30)


VALUES = _nested(SCALARS, TEXT)
# As VALUES, but a leaf may be an object() or a non-finite float, and a dict
# may have non-str keys of one type or of mixed types.
LOOSE_VALUES = _nested(st.one_of(SCALARS, st.floats(), st.builds(object)),
                       NUMBER_KEYS, st.one_of(TEXT, NUMBER_KEYS, st.none()))


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=sorted, allow_nan=False) + "\n"


def _boxed_keys(value):
    """``value`` with every non-str dict key ``k`` replaced by ``(k,)``, a key
    ``json.dumps`` refuses with ``TypeError`` where it meets it."""
    if isinstance(value, dict):
        return {key if isinstance(key, str) else (key,): _boxed_keys(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_boxed_keys, value))
    return value


@example({})
@example([])
@example(["a", {"b": "c"}, "d"])
@example(("x", ["y", "z"], {"w"}, 1))
@example({"a": [0.1, -0.0, 1e308, 5e-324], "b": 2**70})
@given(VALUES)
def test_writes_the_bytes_of_json_dumps(value):
    assert json_text(value) == _reference(value)


@example(object())
@example([object()])
@example({"a": {object()}})
@example({1: 0, "a": 1})
@example({None: 0, 1: 1})
@example({(1, 2): 0})
@example([{True: 1}, {1: 2}, {1.0: 3}])
@example({"a": {1: 2}, "b": {True: 1}, "c": {1.0: 3}, "d": {False: 0, 0.5: 1}})
@example([math.nan, {1: 0}])
@example([{1: 0}, math.nan])
@given(LOOSE_VALUES)
def test_raises_where_strict_json_dumps_does(value):
    try:
        want = _reference(_boxed_keys(value))
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            json_text(value)
    else:
        assert json_text(value) == want


@pytest.mark.parametrize("key", [1, 1.0, True, None, (1, 2)], ids=repr)
def test_refuses_a_key_that_is_not_a_string(key):
    with pytest.raises(TypeError, match="keys must be str"):
        json_text({key: 0})
    with pytest.raises(TypeError, match="keys must be str"):
        json_text({"a": [{key: 0}]})


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf], ids=repr)
def test_refuses_a_number_that_is_not_finite(number):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(number)
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text({"a": number})
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text({"a": {"b": [1, number]}})


class _LikeId:
    """A key that hashes and compares equal to the ``str`` ``"id"``, but is no ``str``."""

    def __eq__(self, other):
        return other == "id"

    def __hash__(self):
        return hash("id")


@pytest.mark.parametrize("value", [
    {_LikeId(): 0},
    [{"id": 0}, {_LikeId(): 1}],
    {"a": {"id": 0}, "b": {_LikeId(): 1}},
], ids=["first sight", "after a list member of its shape", "after a dict member of its shape"])
def test_refuses_a_key_that_only_equals_a_string(value):
    with pytest.raises(TypeError, match="^keys must be str, not _LikeId$"):
        json_text(value)


class _Key(str):
    """A ``str`` subclass: a valid key, equal to the plain ``str`` of its text."""


@st.composite
def _same_shapes(draw):
    """2-6 dicts over one key set in shuffled insertion orders, some keys as
    ``_Key``, mixed with dicts of other key sets, the same key set also one
    list deeper and as a member of one of the dicts."""
    keys = draw(st.lists(TEXT, max_size=5, unique=True))
    leaves = st.one_of(SCALARS, STRING_COLLECTIONS)

    def shaped():
        return {(_Key(key) if draw(st.booleans()) else key): draw(leaves)
                for key in draw(st.permutations(keys))}

    items = [shaped() for _ in range(draw(st.integers(2, 6)))]
    for other in draw(st.lists(st.dictionaries(TEXT, leaves, max_size=4), max_size=3)):
        items.insert(draw(st.integers(0, len(items))), other)
    if keys:
        items[0][keys[0]] = shaped()
    return items + [[shaped(), shaped()]]


@example([{"b": 1, "a": 2}, {"a": 3, "b": 4}, [{_Key("a"): 5, "b": 6}]])
@given(_same_shapes())
def test_writes_repeated_shapes_as_json_dumps(value):
    assert json_text(value) == _reference(value)


def _large_graph():
    """A mapping graph of 300 C-nodes over the built-in atoms and 12 E-nodes."""
    atoms = sorted(mode.id for mode in base_atoms())
    c_nodes = [{"id": f"c{i:03d}", "description": f"Move {i}: répondre « {i} »",
                "modes": [atoms[(i * j) % len(atoms)] for j in (1, 3, 7)]}
               for i in range(1, 301)]
    e_nodes = [{"id": f"e{i:02d}", "display_name": f"Purpose {i}",
                "cognitive": [f"c{j:03d}" for j in range(i, 301, 12)]}
               for i in range(1, 13)]
    return load_pyramid(source={"profile": "wide", "c_nodes": c_nodes, "e_nodes": e_nodes})


def test_every_serializer_writes_json_dumps_of_its_document():
    graphs = [load_pyramid(), load_pyramid(ACADEMIC_PROFILE), _large_graph()]
    assert len(graphs[2].edges_cr) > 600
    written = [(serialize_registry(default_registry()), default_registry().to_document()),
               (serialize_rules(default_rules()), default_rules().to_document())]
    written += [(serialize_pyramid(graph), graph.to_document()) for graph in graphs]
    stages = [{"name": s.name, "K": s.k_cumulative, "duration": s.duration}
              for s in default_schedule().stages]
    written.append((serialize_schedule(default_schedule()), {"stages": stages}))
    for text, document in written:
        assert text == _reference(document)
