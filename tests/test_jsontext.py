"""Property: ``json_text`` writes the bytes of the ``json.dumps`` call it replaces.

The oracle is ``json.dumps(value, indent=2, sort_keys=True, default=sorted)``
plus a newline.  Drawn values nest lists, tuples and dicts around strings
(non-ASCII, control characters, lone surrogates), big ints, bools, ``None``,
floats with NaN and the infinities, and sets of strings.  Where the oracle
raises ``TypeError`` (an ``object()`` leaf, dict keys that do not sort), the
writer must raise it too.
"""
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rhetor.jsontext import json_text

TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = st.one_of(
    TEXT, st.booleans(), st.none(), st.floats(),
    st.integers(), st.integers(min_value=-2**200, max_value=2**200))
STRING_COLLECTIONS = st.one_of(
    st.lists(TEXT), st.lists(TEXT).map(tuple), st.sets(TEXT), st.frozensets(TEXT))
# Keys of these types sort against each other, so json.dumps accepts them.
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


VALUES = _nested(SCALARS, TEXT, NUMBER_KEYS)
# As VALUES, but a leaf may be an object() and a dict may mix key types.
LOOSE_VALUES = _nested(st.one_of(SCALARS, st.builds(object)),
                       st.one_of(TEXT, NUMBER_KEYS, st.none()))


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=sorted) + "\n"


# True, 1 and 1.0 hash alike: a prefix cache keyed on the raw key would
# write "true" for the 1 and the 1.0.
@example([{True: 1}, {1: 2}, {1.0: 3}])
@example({"a": {1: 2}, "b": {True: 1}, "c": {1.0: 3}, "d": {False: 0, 0.5: 1}})
@example({})
@example([])
@example(["a", {"b": "c"}, "d"])
@example(("x", ["y", "z"], {"w"}, 1))
@given(VALUES)
def test_writes_the_bytes_of_json_dumps(value):
    assert json_text(value) == _reference(value)


@example(object())
@example([object()])
@example({"a": {object()}})
@example({1: 0, "a": 1})
@example({None: 0, 1: 1})
@example({(1, 2): 0})
@given(LOOSE_VALUES)
def test_raises_type_error_where_json_dumps_does(value):
    try:
        want = _reference(value)
    except TypeError:
        with pytest.raises(TypeError):
            json_text(value)
    else:
        assert json_text(value) == want

