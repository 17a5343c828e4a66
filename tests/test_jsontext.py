"""Property: ``json_text`` writes the bytes of the strict ``json.dumps`` call it replaces.

The oracle is ``json.dumps(value, indent=2, sort_keys=True, default=sorted,
allow_nan=False)`` plus a newline.  Drawn values nest lists, tuples and dicts
with ``str`` keys around strings (non-ASCII, control characters, lone
surrogates), big ints, bools, ``None``, finite floats, and sets of strings.
Where the value holds a non-``str`` dict key, a NaN or an infinity, or a leaf
that is not JSON (an ``object()``, dict keys that do not sort), the writer
raises the class the oracle raises, with each non-``str`` key boxed in a
tuple so the oracle refuses it where it meets it instead of coercing it.
"""
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
