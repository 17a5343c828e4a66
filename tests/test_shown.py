"""``errors.shown``, the one writer of values in error texts, and the rule
that every value in a message goes through it."""
import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rhetor
from rhetor.errors import SHOWN_LENGTH, shown

SOURCE = Path(rhetor.__file__).resolve().parent
HUGE = 10**5000
NAMED = "<int out of floating-point range>"


def _writes_a_value(node: ast.AST) -> bool:
    """Whether ``node`` writes a value by ``repr``: a ``!r`` or ``!a``
    conversion, the name ``repr``, or a ``%r`` or ``{!r}`` template."""
    if isinstance(node, ast.FormattedValue):
        return node.conversion in (ord("r"), ord("a"))
    if isinstance(node, ast.Name):
        return node.id == "repr"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "!r}" in node.value or "%r" in node.value
    return False


def test_every_value_in_a_message_goes_through_shown():
    """Outside ``records.py``, which imports nothing and writes names from
    code, no module writes a value by ``repr`` but ``shown``'s own walk."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "records.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "errors.py":
            walk = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "_written")
            allowed = {id(node) for node in ast.walk(walk)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _writes_a_value(node) and id(node) not in allowed]
    assert found == []


ORDINARY = [0, -7, 2**64, True, None, 1.5, float("nan"), float("-inf"), "it's", "", b"x",
            [], (), {}, set(), frozenset(), [1, "a"], (1,), (1, 2), {"a": [1, (2,)]}, {1, 2},
            frozenset({3}), Fraction(1, 3), int, ("narration", ["cause", "effect"])]


@pytest.mark.parametrize("value", ORDINARY, ids=[repr(v) for v in ORDINARY])
def test_an_ordinary_value_is_written_as_repr_writes_it(value):
    assert shown(value) == repr(value)


def test_a_container_inside_itself_is_marked_as_repr_marks_it():
    items: list = [1]
    items.append(items)
    table: dict = {}
    table["x"] = table
    pair = ([],)
    pair[0].append(pair)
    for value in (items, table, pair):
        assert shown(value) == repr(value)


@pytest.mark.parametrize("value, text", [
    (HUGE, NAMED),
    (-HUGE, f"-{NAMED}"),
    ([HUGE], f"[{NAMED}]"),
    ((1, -HUGE), f"(1, -{NAMED})"),
    ({"K": {HUGE}}, f"{{'K': {{{NAMED}}}}}"),
    (frozenset({HUGE}), f"frozenset({{{NAMED}}})"),
    ({HUGE: [HUGE]}, f"{{{NAMED}: [{NAMED}]}}"),
    (10**400, NAMED),
], ids=["int", "negative", "list", "tuple", "set-in-dict", "frozenset", "dict-key", "1e400"])
def test_an_int_beyond_float_range_is_named_at_any_depth(value, text):
    assert shown(value) == text


def test_a_long_value_is_cut_and_its_length_given():
    name = "x" * 10**6
    text = shown(name)
    assert text == repr(name)[:SHOWN_LENGTH] + "... (1000002 characters)"
    numbers = list(range(10**5))
    assert shown(numbers) == f"{repr(numbers)[:SHOWN_LENGTH]}... ({len(repr(numbers))} characters)"
    assert shown("x" * (SHOWN_LENGTH - 2)) == repr("x" * (SHOWN_LENGTH - 2))


class _BadRepr:
    def __repr__(self):
        raise RuntimeError("no text")


def _deep(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("value, text", [
    (_BadRepr(), "<unprintable _BadRepr object>"),
    ([1, _BadRepr()], "<unprintable list object>"),
    pytest.param(Fraction(HUGE, 3), "<unprintable Fraction object>",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python writes an int of any length")),
    (_deep(10**5), "<unprintable list object>"),
], ids=["repr-raises", "item-repr-raises", "fraction-past-digit-limit", "nested-too-deep"])
def test_a_value_that_cannot_be_written_is_named_by_its_type(value, text):
    assert shown(value) == text


@settings(max_examples=200, deadline=None)
@given(st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                    | st.integers(min_value=10**308) | st.binary(),
                    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                                   | st.frozensets(st.integers() | st.text())
                                   | st.dictionaries(st.text(), inner)),
                    max_leaves=12))
def test_shown_never_raises_and_stays_short(value):
    text = shown(value)
    assert len(text) <= SHOWN_LENGTH + len("... (999999999 characters)")
