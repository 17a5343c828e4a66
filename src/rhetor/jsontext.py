"""Deterministic JSON text and JSON documents: the one writer and the one
reader.

:func:`json_text` is the one writer, behind every serializer and every
``--format json`` call.  It writes strict JSON: object keys are ``str`` and
numbers are finite.  For such a value it returns the same text as
``json.dumps(payload, indent=2, sort_keys=True, default=sorted,
allow_nan=False) + "\\n"``: keys sorted, two-space indent, ASCII-escaped
strings, tuples as lists, and any other value (a set, say) written as its
sorted list.  A dict key that is not a ``str`` raises ``TypeError``, and a
NaN or infinite float raises ``ValueError``.  ``json.dumps`` with an indent
runs the pure-Python generator encoder on CPython before 3.14; this writer
appends the pieces to one list and joins them once, encodes strings with the
C ``encode_basestring_ascii``, and writes a list of strings with one ``join``.
Each call keeps a table of object shapes, keyed by a dict's keys in order and
its indent.  The first dict of a shape checks and sorts its keys into stored
member heads (separator, indent, key text); a later dict of that shape writes
one head and one value per member, once a C-level ``"".join`` of its keys has
refused a key that only compares equal to a ``str``.  Unlike ``json.dumps``
it does not look for cycles: a self-containing value raises
``RecursionError`` instead of ``ValueError``.

:func:`read_document` is the one reader, behind every JSON loader: it turns
a path, JSON text or parsed value into a JSON object, and :func:`read_text`
reads a file as UTF-8 for it and for ``.rma`` parsing.  :func:`entries`,
:func:`text_field` and :func:`names_field` walk a document's sections, so
every loader reports a malformed entry as ``<key>[<i>]: '<field>' must be
...``.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode
from math import isfinite
from pathlib import Path

from .errors import ParseError, shown


def json_text(payload) -> str:
    """``payload`` as sorted, two-space-indented JSON text ending in a newline."""
    parts: list[str] = []
    write = parts.append
    shapes: dict = {}  # (keys, newline) -> (heads, inner, close) per object shape

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
            if not isfinite(o):
                raise ValueError(f"Out of range float values are not JSON compliant: {shown(o)}")
            write(float.__repr__(o))
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
            (obj if isinstance(item, dict) else value)(item, inner)
        write(newline + "]")

    def shape(keys: tuple, newline: str) -> tuple:
        inner = newline + "  "
        lead, heads = "{" + inner, []
        for key in sorted(keys):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            heads.append((lead + _encode(key) + ": ", key))
            lead = "," + inner
        return heads, inner, newline + "}" if heads else "{}"

    def obj(mapping, newline: str) -> None:
        keys = tuple(mapping)
        try:
            heads, inner, close = shapes[keys, newline]
            "".join(keys)  # a key that only compares equal to a str raises here
        except (KeyError, TypeError):
            heads, inner, close = shapes[keys, newline] = shape(keys, newline)
        for head, key in heads:
            write(head)
            item = mapping[key]
            if isinstance(item, str):
                write(_encode(item))
            else:
                (array if isinstance(item, (list, tuple)) else value)(item, inner)
        write(close)

    value(payload, "\n")
    write("\n")
    return "".join(parts)


def read_text(path: Path, kind: str) -> str:
    """UTF-8 contents of ``path``; ``OSError`` propagates to the caller."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{kind} is not UTF-8 text (byte 0x{data[exc.start]:02x})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def read_document(source: "str | Path | dict", kind: str) -> dict:
    """The JSON object of a ``kind`` document given as a path, JSON text or parsed value."""
    if isinstance(source, Path):
        source = read_text(source, f"{kind} document")
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed {kind} document: {exc.msg}",
                             line=exc.lineno, column=exc.colno) from exc
        except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
            raise ParseError(f"malformed {kind} document: {exc}") from None
    if not isinstance(source, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    return source


def entries(doc: dict, key: str, kind: str):
    """``(where, entry)`` for each object of the list ``doc[key]``, ``where``
    like ``modes[3]``; an absent ``key`` holds no entries."""
    section = doc.get(key, [])
    if not isinstance(section, list):
        raise ParseError(f"{kind} {shown(key)} must be a list")
    for position, entry in enumerate(section):
        where = f"{key}[{position}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: entries must be objects")
        yield where, entry


def text_field(entry: dict, key: str, where: str, required: bool = False) -> str:
    """String field ``key`` of the entry at ``where``; ``""`` when absent,
    which a ``required`` field may not be."""
    value = entry.get(key, "")
    if not isinstance(value, str) or required and not value:
        raise ParseError(f"{where}: {shown(key)} must be a "
                         f"{'non-empty ' if required else ''}string")
    return value


def names_field(entry: dict, key: str, where: str,
                required: bool = False) -> tuple[str, ...]:
    """List-of-strings field ``key`` of the entry at ``where``, as a tuple;
    ``()`` when absent, which a ``required`` field may not be."""
    value = entry.get(key, [])
    if (not isinstance(value, list) or required and not value
            or not all(isinstance(name, str) for name in value)):
        raise ParseError(f"{where}: {shown(key)} must be a "
                         f"{'non-empty ' if required else ''}list of names")
    return tuple(value)
