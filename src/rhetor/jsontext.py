"""Deterministic JSON text: the one writer behind every serializer and every
``--format json`` call.

:func:`json_text` returns the same text as
``json.dumps(payload, indent=2, sort_keys=True, default=sorted) + "\\n"``:
keys sorted (before int, float, bool and ``None`` keys are coerced to
strings), two-space indent, ASCII-escaped strings, tuples as lists, and any
other value (a set, say) written as its sorted list.  ``json.dumps`` with an
indent runs the pure-Python generator encoder on CPython before 3.14; this
writer appends the pieces to one list and joins them once, encodes strings
with the C ``encode_basestring_ascii``, and writes a list of strings with a
single ``join``.

Unlike ``json.dumps`` it does not look for cycles: a self-containing value
raises ``RecursionError`` instead of ``ValueError``.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode

_INFINITY = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A non-str dict key as ``json`` coerces it to a string."""
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def json_text(payload) -> str:
    """``payload`` as sorted, two-space-indented JSON text ending in a newline."""
    parts: list[str] = []
    write = parts.append
    # '"key": ' per key, after coercion to str, so True and 1 never share one.
    prefixes: dict[str, str] = {}

    def value(o, newline: str) -> None:
        if isinstance(o, str):
            write(_encode(o))
        elif o is None:
            write("null")
        elif o is True:
            write("true")
        elif o is False:
            write("false")
        elif isinstance(o, int):
            write(int.__repr__(o))
        elif isinstance(o, float):
            write(_float_text(o))
        elif isinstance(o, (list, tuple)):
            array(o, newline)
        elif isinstance(o, dict):
            obj(o, newline)
        else:
            value(sorted(o), newline)

    def array(items, newline: str) -> None:
        if not items:
            write("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        try:
            write("[" + inner + separator.join(map(_encode, items)) + newline + "]")
            return
        except TypeError:  # an item that is not a string
            pass
        lead = "[" + inner
        for item in items:
            write(lead)
            lead = separator
            value(item, inner)
        write(newline + "]")

    def obj(mapping, newline: str) -> None:
        if not mapping:
            write("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        lead = "{" + inner
        for key, item in sorted(mapping.items()):
            if not isinstance(key, str):
                key = _key_text(key)
            prefix = prefixes.get(key)
            if prefix is None:
                prefix = prefixes[key] = _encode(key) + ": "
            write(lead + prefix)
            lead = separator
            if isinstance(item, str):
                write(_encode(item))
            else:
                value(item, inner)
        write(newline + "}")

    value(payload, "\n")
    write("\n")
    return "".join(parts)
